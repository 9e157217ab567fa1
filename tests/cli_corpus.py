"""A fingerprint of the command line's answers: one line per argv, with
the argv, the exit code and the sha256 of stdout and of stderr.

    PYTHONPATH=src python tests/cli_corpus.py > new.txt
    PYTHONPATH=<other checkout>/src python tests/cli_corpus.py > old.txt
    diff old.txt new.txt

Two builds that print the same lines answer every argv of the corpus
byte for byte alike.  The corpus holds every CLI query of the three
benchmark workloads at seeds 1-3 (generated by ``perfbench/workloads.py``),
malformed expressions for the three expression commands, constants and
commutators over z, q, mod:4 and mod:6, ``normalize --truncated``, and
one call each of ``idempotents`` and ``trace-witness``; every expression
command runs in text and in JSON.  Each argv runs in this process
through ``epsgrass.cli.main``, so the caches of one call serve the next.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "perfbench"))

from epsgrass import cli  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

RINGS = ("z", "q", "mod:4", "mod:6")
FORMATS = ("text", "json")

MALFORMED = [
    "x1 + + $", "x1 2 + $", "e1 + @", "ep1", "x1 + eps", "theta x", "x٣",
    "x1 5", "x1\t-\n\n 7 8", "5 x1", "x1)", "x1, x2", "x1 + * x2", "- - x1",
    "x1 +\n  * x2", "x1 +", "-", "", "   ", "(x1", "Tr(x1", "Tr x1", "[x1 x2]",
    "[x1, x2", "{x1, x2)", "e1 + x1001", "e1 + eps1001", "x0", "x1*x1",
    "Tr(x1)", "e1*x2", "{x1,x2}", "theta*x1", "x1 + x2",
    "(" * 101 + "x1" + ")" * 101, "[x1," * 101 + "x2" + "]" * 101,
]

NORMALIZE = [
    "2*3", "2*2", "3*0", "2*e1", "e1*2", "-5*e1*e2", "2*(2*eps1*e1*e1)",
    "(2*eps1*e1*e1)*2", "(1 + eps1)*3", "3*(1 + eps1)*e2*e1", "(1 - eps1*eps2)*(2 + theta*eps1)",
    "[e1,e2]", "[2,e1]", "[e1,3]", "[e1*e1,e2]", "[e1 + eps1*e2, e2*e1]",
    "[[e1,e2],e3]", "[e2*e1, e1*e3]", "{e1,e2}", "{2, e1*e2}", "2*[e1,e2] - [e1,e2]*2",
    "(2 + theta*eps1)*e1*e1*(3 - eps1)", "theta*theta", "6*eps1*e1*e1",
]

CHECK = [
    ("[x1,[x2,x3]]", 3), ("-5*[[x1,x2],x3]", 3), ("[[x1,x2],x3]*7 - 0*x1*x2*x3", 3),
    ("2*[x1,x2] - 2*x1*x2 + 2*x2*x1", 2), ("2*2*x1*x2 - 4*x2*x1", 2),
    ("[x1*x2,x3] + [x2*x3,x1] + [x3*x1,x2]", 3), ("[x1,x2]*[x3,x4] + [x1,x3]*[x2,x4]", 4),
    ("[x1,x2]*[x1,x3]", 3), ("[x1 + x2*x3, x2]", 3), ("3*[x1,x2]", 2), ("[2,x1]", 1),
    ("[x1*x2 - x2*x1, x3*x4 + 2*x4*x3]", 4), ("[x1,x2]*3*[x3,x4]", 4),
]

TRACE = [
    "[Tr(x1), x2]", "3*Tr([x1,x2])", "2*[x1,x2] + 2*[x2,x1]", "Tr(x1)*2 - 2*Tr(x1)",
    "[x1, Tr([x2,x3])]", "[Tr(x1),[Tr(x2),x3]]", "-5*[x1*x2, Tr(x3)]", "2*2*Tr(x1*x2)",
    "[x1*x2, x3] - x1*[x2,x3] - [x1,x3]*x2",
]

TRUNCATED = [
    "e1*e1", "(1 + eps1)*e1*e2*e1", "2*e1*e2", "[e1,e2]*e1", "[e1,e2]", "2*(3 + theta*eps1)*e2*e1",
]


def corpus() -> list[list[str]]:
    argvs = []
    for name in ("comodule", "identities", "trace"):
        for seed in (1, 2, 3):
            queries = WORKLOADS[name]().generate(random.Random(seed))
            argvs.extend(q.arg for q in queries if q.kind == "cli")
    for text in MALFORMED:
        for fmt in FORMATS:
            argvs.append(["normalize", "--format", fmt, "--", text])
            argvs.append(["check-identity", "--vars", "3", "--format", fmt, "--", text])
            argvs.append(["trace-check", "--format", fmt, "--", text])
    for ring in RINGS:
        for fmt in FORMATS:
            common = ["--ring", ring, "--format", fmt, "--"]
            argvs.extend(["normalize", *common, text] for text in NORMALIZE)
            argvs.extend(["normalize", "--truncated", *common, text] for text in TRUNCATED)
            argvs.extend(["check-identity", "--vars", str(n), *common, text] for text, n in CHECK)
            argvs.extend(["trace-check", *common, text] for text in TRACE)
    argvs.append(["idempotents", "--X", "2", "--ring", "q"])
    argvs.append(["trace-witness", "x1*x2"])
    return argvs


def run(argv) -> tuple[str, bool]:
    """The fingerprint line of one argv, and whether the call raised."""
    out, err = io.StringIO(), io.StringIO()
    raised = False
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = str(cli.main(argv))
        except Exception as exc:  # fingerprinted too, and the exit status says so
            code, raised = f"raised {type(exc).__name__}: {exc}", True
    digest = [hashlib.sha256(s.getvalue().encode()).hexdigest() for s in (out, err)]
    return f"{json.dumps(argv)} {code} {digest[0]} {digest[1]}", raised


def main() -> int:
    """Print every line; exit 1 if any call raised, as the CLI never should."""
    failed = False
    for argv in corpus():
        line, raised = run(argv)
        print(line)
        failed = failed or raised
    return int(failed)


if __name__ == "__main__":
    sys.exit(main())
