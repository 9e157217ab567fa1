"""One measurement in a fresh process: set up, one cold pass over the
query list, a fixed number of warm passes, then the checks.

    python3 perfbench/worker.py --workload comodule --seed 1 [--trace] [--tiny]

Prints one JSON object as its last line.  Being a fresh process, the
cold pass starts from empty caches without touching any private cache.

The host's speed toggles by up to 1.7x within seconds to minutes (other
tenants share its cores).  So the worker times a fixed reference kernel
(``reference_s``) before the set-up, after it, and after every stretch of
about ``SEGMENT_S`` of queries, and reports each timing both as measured
and scaled to the host's reference speed: every stretch counts
``measured * REFERENCE_S / reference``, with the mean of the reference
times on either side; a stretch longer than ``LONG_S`` is scaled by the
mean of all the worker's reference times.  The reference runs outside the
timed stretches.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

# The reference kernel: integer elimination with a smallest-pivot scan on
# a fixed 60x60 matrix, repeated; list, int and abs() work like the
# program's inner loops, but none of the program's code.
REFERENCE_MATRIX = [[(i * 7 + j * 13) % 11 - 5 for j in range(60)] for i in range(60)]
REFERENCE_REPEATS = 6
# the kernel's time on an idle core of the 2-vCPU Xeon VM where the
# README's figures were taken, so that scaled timings read as seconds there
REFERENCE_S = 0.0125
SEGMENT_S = 0.25
# a stretch this long is one long query: the references at its two ends do
# not describe the host during it, so it is scaled by the mean of all the
# worker's references instead
LONG_S = 3.0


def _eliminate(a: list) -> None:
    n = len(a)
    for t in range(n):
        best = None
        for i in range(t, n):
            row = a[i]
            for j in range(t, n):
                v = abs(row[j])
                if v and (best is None or v < best[0]):
                    best = (v, i, j)
        if best is None:
            return
        _, bi, bj = best
        a[t], a[bi] = a[bi], a[t]
        for row in a:
            row[t], row[bj] = row[bj], row[t]
        p = a[t][t]
        for i in range(t + 1, n):
            q = a[i][t] // p
            if q:
                a[i] = [x - q * y for x, y in zip(a[i], a[t])]


def reference_s() -> float:
    """Time of the fixed reference kernel."""
    start = perf_counter()
    for _ in range(REFERENCE_REPEATS):
        _eliminate([row[:] for row in REFERENCE_MATRIX])
    return perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args()

    ref_before = reference_s()
    start = perf_counter()
    sys.path.insert(0, SRC)
    import workloads  # imports epsgrass: part of the set-up time

    workload = workloads.WORKLOADS[args.workload](tiny=args.tiny)
    queries = workload.generate(random.Random(args.seed))
    setup_s = perf_counter() - start
    refs = [ref_before, reference_s()]
    setup_scaled_s = setup_s * REFERENCE_S * 2 / (refs[0] + refs[1])
    digest = workloads.inputs_digest(queries)

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    def one_pass():
        """(measured s, scaled s of the short stretches, s of the long
        stretches, answers, errors) of one pass."""
        answers, errors = [], {}
        measured = scaled = long = stretch = 0.0
        for k, q in enumerate(queries):
            start = perf_counter()
            try:
                answers.append(workload.run(q))
            except Exception as err:  # a failed operation is counted, not fatal
                answers.append(None)
                errors[k] = f"{type(err).__name__}: {err}"
            stretch += perf_counter() - start
            if stretch >= SEGMENT_S or k == len(queries) - 1:
                refs.append(reference_s())
                if stretch < LONG_S:
                    scaled += stretch * REFERENCE_S * 2 / (refs[-2] + refs[-1])
                else:
                    long += stretch
                measured += stretch
                stretch = 0.0
        return measured, scaled, long, answers, errors

    passes = [one_pass() for _ in range(1 + workload.warm_passes)]
    # the long stretches are scaled by the mean of all the worker's references
    scaled_s = [p[1] + p[2] * REFERENCE_S / statistics.mean(refs) for p in passes]
    (cold_s, _, _, cold_answers, errors), warm = passes[0], passes[1:]
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.uninstall()

    # an operation is one query in one pass; it fails by raising or by a
    # wrong answer
    ok = [k for k in range(len(queries)) if k not in errors]
    try:
        wrong_ok = workload.check([queries[k] for k in ok], [cold_answers[k] for k in ok])
        wrong = {ok[j]: reason for j, reason in wrong_ok.items()}
    except Exception as err:
        wrong = {k: f"check raised {type(err).__name__}: {err}" for k in ok}
    reasons = {**errors, **wrong}
    failed_ops = len(reasons)
    for _, _, _, answers, warm_errors in warm:
        for k in range(len(queries)):
            if k in warm_errors:
                reasons.setdefault(k, warm_errors[k])
                failed_ops += 1
            elif k in reasons:
                failed_ops += 1
            elif answers[k] != cold_answers[k]:
                wrong[k] = reasons[k] = "warm answer differs from the cold answer"
                failed_ops += 1

    result = {
        "queries": len(queries),
        "passes": 1 + len(warm),
        "failed": failed_ops,
        "wrong": len(wrong),
        "reasons": {str(k): v for k, v in sorted(reasons.items())[:5]},
        "digest": digest,
        "setup_s": setup_s,
        "cold_s": cold_s,
        "warm_s": [w[0] for w in warm],
        "setup_scaled_s": setup_scaled_s,
        "cold_scaled_s": scaled_s[0],
        "warm_scaled_s": scaled_s[1:],
        "peak_rss_mb": peak_rss_mb,
        "reference_s": refs,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = tracer.spans()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
