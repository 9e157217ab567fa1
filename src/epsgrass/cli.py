"""Command line interface.

Each command computes its answer and hands it to ``_report``, the one
writer of the JSON payload (``command``, ``ring``, ``result`` and
``details``) and of the text lines.  Every input is checked before any
work: the integer options against ``CLI_LIMITS`` here, and every
expression by the parser in ``expr``, which bounds its nesting
(``MAX_NESTING``) and its indices (``MAX_INDEX``).

Exit codes: 0 success (or positive check), 1 semantic negative (not an
identity, failed check, no witness), 2 bad input, with a message: an
argument that argparse refuses (such as a flag of another command) or
any ``ValueError`` (such as a parse error, an expression past a bound
of ``expr`` or an option outside ``CLI_LIMITS``), 3 missing ring
capability, 4 internal error (``InternalError``: a certificate check
failed), 141 the reader closed the output pipe (as ``epsgrass signs
--n 7 | head -1`` does; nothing more is printed, and 141 = 128 +
SIGPIPE is what a shell reports for a program that the signal ends).

An expression is computed in the ring's ``eval_ring``, on ints, and its
value is mapped into ``--ring`` once: Z and Z/m compute in themselves
(Z/m so collapses mod m early), and Q in its integers, whose residues
drop the torsion at once (see ``rings._IntegralRationals``).  The
grammar has only integer constants, so this gives the value over Q.
``WordAlgebra.base_change``, ``TracePoly.base_change`` and
``MultilinearPoly.from_word_poly`` map the value.  Z and Q refuse to
print a coefficient of more than ``MAX_DIGITS`` digits (exit 2).

Start-up dominates one call: a process spends far longer importing and
compiling the package than answering a small query.  So this module
loads at start-up only ``rings``, ``terms``, ``epsilon``,
``grassmann``, ``linalg``, ``comodule``, ``expr`` and ``supertrace``
(loading ``supertrace`` per command instead would move its compile
into the first ``trace-check`` query).  ``hull``, and ``salg`` behind
it, load only where they run: in ``idempotents``, and in
``trace-witness``, whose witness search and matrix model are in ``hull``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from functools import lru_cache
from itertools import chain, permutations
from typing import Iterable

from .comodule import (
    MAX_COMODULE_ARITY,
    MAX_SIGN_TABLE_ARITY,
    MultilinearPoly,
    _spanning_rows,
    comodule_rank,
    freeness_certificate,
    is_identity,
    matrix_dump,
    unit_words,
)
from .epsilon import CoeffRing, InternalError
from .expr import compile_grass, compile_trace_poly, parse
from .grassmann import GrassAlgebra, esgn
from .rings import CapabilityError, ring_from_spec
from .supertrace import trace_normalize

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141

# The bounds of the integer options, checked before any work: command ->
# [(option, name in messages, lowest, highest, flag or None)]; a
# bound with a flag applies only when that flag is set.  The co-module
# certificate reaches arity 15 in 1.3-1.6 s cold (see
# comodule.MAX_COMODULE_ARITY), but the sign table behind signs and
# --dump-matrix holds n! rows (9-14 s at 8).
# idempotents costs O(4^X) products (16 s over Q at --X 6); a witness
# search that exhausts its attempts takes 7.5 s at --max-n 6.
# check-identity runs at most one subset transform per maximal vertex
# set of its monomials' inversion graphs, 2^n fields at n letters: the
# budget is 10 s and 256 MB cold, for the reversed word xn*...*x1 and
# for 50 seeded random permutations, which --vars 20 meets: 1.1-1.7 s
# at 125 MB and 3.5-4.2 s at 138 MB on a shared 2-vCPU VM (BENCH_25.json).
CLI_LIMITS = {
    "comodule": [
        ("n", "arity", 1, MAX_COMODULE_ARITY, None),
        ("n", "arity with --dump-matrix", 1, MAX_SIGN_TABLE_ARITY, "dump_matrix"),
    ],
    "signs": [("n", "arity", 1, MAX_SIGN_TABLE_ARITY, None)],
    "idempotents": [("x_size", "--X", 0, 6, None)],
    "trace-witness": [("max_n", "--max-n", 2, 6, None)],
    "check-identity": [("vars", "--vars", 1, 20, None)],
}


def _common_flags(sub):
    sub.add_argument("--ring", default="z", help="base ring: z, q or mod:<m>")
    sub.add_argument("--format", default="text", choices=("text", "json"))


@lru_cache(maxsize=None)
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` parses every
    call with it, and parsing leaves it unchanged."""
    ap = argparse.ArgumentParser(
        prog="epsgrass",
        description="exact computations in sign-twisted Grassmann algebras",
    )
    subs = ap.add_subparsers(dest="command", required=True)

    p = subs.add_parser("normalize", help="normal form of an algebra expression")
    p.add_argument("expr")
    p.add_argument(
        "--truncated",
        action="store_true",
        help="work in the quotient killing all generator squares",
    )
    _common_flags(p)

    p = subs.add_parser("check-identity", help="multilinear identity test")
    p.add_argument("expr")
    p.add_argument("--vars", type=int, required=True)
    _common_flags(p)

    p = subs.add_parser("comodule", help="sign module rank and freeness certificate")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dump-matrix", action="store_true")
    _common_flags(p)

    p = subs.add_parser("signs", help="table of generalized signs of S_n")
    p.add_argument("--n", type=int, required=True)
    _common_flags(p)

    p = subs.add_parser("idempotents", help="idempotent system report")
    p.add_argument("--X", type=int, required=True, dest="x_size")
    _common_flags(p)

    p = subs.add_parser("trace-check", help="trace identity test and standard form")
    p.add_argument("expr")
    _common_flags(p)

    p = subs.add_parser("trace-witness", help="search for a nonzero matrix witness")
    p.add_argument("expr")
    p.add_argument("--max-n", type=int, default=3)
    p.add_argument("--seed", type=int, default=0, help="seed of the witness search")
    _common_flags(p)

    return ap


def _report(args, ring, result, details: dict, text_lines: Iterable[str]) -> None:
    """Print a command's answer: in JSON one payload of the command, the
    ring, the result and its details, in text the lines of
    ``text_lines``.  Either may be a generator, consumed only by the
    format that prints it; JSON reads a generator as a list."""
    if args.format == "json":
        payload = {"command": args.command, "ring": ring.name, "result": result, "details": details}
        encoder = json.JSONEncoder(indent=2, sort_keys=True, default=list)
        for chunk in encoder.iterencode(payload):
            sys.stdout.write(chunk)
        sys.stdout.write("\n")
    else:
        for line in text_lines:
            print(line)


def _run(args) -> int:
    command = args.command
    for dest, name, lo, hi, flag in CLI_LIMITS.get(command, ()):
        if flag is not None and not getattr(args, flag):
            continue
        if not lo <= getattr(args, dest) <= hi:
            raise ValueError(f"{name} must be between {lo} and {hi}")
    ring = ring_from_spec(args.ring)
    tree = parse(args.expr) if "expr" in args else None

    calc = ring.eval_ring  # see the module docstring

    if command == "normalize":
        algebra = GrassAlgebra(CoeffRing(ring), truncated=args.truncated)
        calc_algebra = algebra if calc is ring else GrassAlgebra(calc, truncated=args.truncated)
        elem = algebra.base_change(compile_grass(tree, calc_algebra))
        text = elem.render()
        _report(args, ring, text, {"expr": elem.render_expr(), "zero": elem.is_zero()}, [text])
        return EXIT_OK

    if command == "check-identity":
        f = MultilinearPoly.from_word_poly(compile_trace_poly(tree, calc), args.vars, ring)
        verdict = is_identity(f)
        text = "identity" if verdict else "not an identity"
        _report(args, ring, verdict, {"vars": args.vars}, [text])
        return EXIT_OK if verdict else EXIT_NEGATIVE

    if command == "comodule":
        rank = comodule_rank(args.n, ring)
        free = freeness_certificate(args.n)  # True, or InternalError
        basis = [t.render() for t in _spanning_rows(args.n)[0]]  # the certified terms
        lines = [f"rank {rank}", "free: yes", "basis:"]
        lines.extend(f"  {b}" for b in basis)
        details = {"free": free, "basis": basis, "n": args.n}
        if args.dump_matrix:
            # one generator of the rows, consumed by the format that prints it
            details["matrix"] = dump = matrix_dump(args.n)
            lines = chain(lines, dump)
        _report(args, ring, rank, details, lines)
        return EXIT_OK

    if command == "signs":
        # rows are rendered one at a time: text prints each as it comes,
        # and JSON keeps only the rendered strings of its payload
        coeff = CoeffRing(ring)
        words = unit_words(args.n)
        rows = (
            (sigma, esgn(coeff, words, sigma).render())
            for sigma in permutations(range(1, args.n + 1))
        )
        _report(
            args,
            ring,
            ({"sigma": list(sigma), "esgn": value} for sigma, value in rows),
            {"n": args.n},
            (f"{''.join(map(str, sigma))}: {value}" for sigma, value in rows),
        )
        return EXIT_OK

    if command == "idempotents":
        # imported here, so that the commands that do not run hull do not
        # compile it
        from .hull import all_sign_maps, idempotent_system_check, projected_commutation_check

        coeff = CoeffRing(ring)
        indices = range(1, args.x_size + 1)
        complete = idempotent_system_check(coeff, indices)
        algebra = GrassAlgebra(coeff)
        commutation = all(
            projected_commutation_check(algebra, signs)
            for signs in all_sign_maps(indices)
        )
        ok = complete and commutation
        details = {
            "complete_system": complete,
            "projected_commutation": commutation,
            "count": 2 ** args.x_size,
        }
        lines = [
            f"complete system: {'yes' if complete else 'no'}",
            f"projected commutation: {'yes' if commutation else 'no'}",
        ]
        _report(args, ring, ok, details, lines)
        return EXIT_OK if ok else EXIT_NEGATIVE

    if command == "trace-check":
        form = trace_normalize(compile_trace_poly(tree, calc).base_change(ring))
        verdict = form.is_zero()
        text = form.render()
        lines = ["identity" if verdict else "not an identity", f"standard form: {text}"]
        _report(args, ring, verdict, {"standard_form": text}, lines)
        return EXIT_OK if verdict else EXIT_NEGATIVE

    if command == "trace-witness":
        from .hull import SuperTraceContext, eval_trace_poly, witness_search

        f = compile_trace_poly(tree, calc).base_change(ring)
        if trace_normalize(f).is_zero():
            _report(args, ring, None, {"identity": True}, ["identity; no witness exists"])
            return EXIT_NEGATIVE
        witness = witness_search(f, max_n=args.max_n, seed=args.seed)
        if witness is None:
            text = f"no witness found up to size {args.max_n}"
            _report(args, ring, None, {"identity": False, "max_n": args.max_n}, [text])
            return EXIT_NEGATIVE
        ctx = SuperTraceContext(witness.size, GrassAlgebra(CoeffRing(ring)))
        value = eval_trace_poly(f, ctx, witness.matrices(ctx))
        text = witness.render()
        details = {"size": witness.size, "nonzero": not value.is_zero()}
        _report(args, ring, text, details, [f"witness: {text}"])
        return EXIT_OK

    raise AssertionError(command)


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code else EXIT_OK
    try:
        code = _run(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # send what is still buffered to nowhere, so that the exit flush
        # cannot fail on the closed pipe again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as err:
        print(f"capability error: {err}", file=sys.stderr)
        return EXIT_CAPABILITY
    except InternalError as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
