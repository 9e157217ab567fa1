"""Self-check of the benchmark on tiny inputs, in a few seconds.

    python3 perfbench/run.py --self-check

For every workload it checks that the tiny query list passes its checks,
that a corrupted answer fails them, that one seed always gives the same
inputs and two seeds give different ones, and that the counts of two
traced workers agree exactly.  It is not named ``test_*`` so that the
repository's pytest run does not collect it.
"""

from __future__ import annotations

import json
import random

import run
import workloads


def corrupt(answer):
    """A wrong answer of the same shape."""
    if isinstance(answer, dict):  # Grassmann normal form coordinates
        term = next(iter(answer))
        return {**answer, term: answer[term] + 1}
    code, text = answer
    out = json.loads(text)
    if out["command"] == "trace-check":
        form = out["details"]["standard_form"]
        out["details"]["standard_form"] = f"2*({form})" if form != "0" else "x1 - x1 + Tr(x1)"
    elif out["command"] == "normalize":
        out["result"] = out["result"] + " + (1)"
    elif isinstance(out["result"], bool):
        out["result"] = not out["result"]
        code = 1 - code
    else:
        out["result"] += 1
    return code, json.dumps(out)


def main() -> int:
    problems = []
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(tiny=True)
        queries = wl.generate(random.Random(7))
        again = wl.generate(random.Random(7))
        other = wl.generate(random.Random(8))
        digests = [workloads.inputs_digest(qs) for qs in (queries, again, other)]
        if digests[0] != digests[1]:
            problems.append(f"{name}: one seed gave two different inputs")
        if digests[0] == digests[2]:
            problems.append(f"{name}: two seeds gave the same inputs")
        answers = [wl.run(q) for q in queries]
        bad = wl.check(queries, answers)
        if bad:
            problems.append(f"{name}: checks failed on correct answers: {bad}")
        for k in (0, len(queries) - 1):
            mutated = list(answers)
            mutated[k] = corrupt(answers[k])
            if k not in wl.check(queries, mutated):
                problems.append(f"{name}: a corrupted answer to query {k} passed the checks")
        counts = []
        for _ in range(2):
            layers = run.start_worker(name, 7, True, 60, tiny=True)["layers"]
            counts.append({k: v for k, v in layers.items() if not k.endswith("_s")})
        if counts[0] != counts[1]:
            problems.append(f"{name}: traced counts differ between two workers")
        print(f"{name}: {len(queries)} tiny queries checked")
    for p in problems:
        print(f"problem: {p}")
    print("self-check " + ("failed" if problems else "passed"))
    return 1 if problems else 0
