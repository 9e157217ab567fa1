"""Command line interface.

Exit codes: 0 success (or positive check), 1 semantic negative (not an
identity, failed check, no witness), 2 usage or parse error (an option
outside ``CLI_LIMITS`` or a flag of another command included), 3 missing
ring capability, 4 internal error (a certificate check failed), 141 the
reader closed the output pipe (as ``epsgrass signs --n 7 | head -1``
does; nothing more is printed, and 141 = 128 + SIGPIPE is what a shell
reports for a program that the signal ends).
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
    InternalError,
    MultilinearPoly,
    comodule_rank,
    freeness_certificate,
    is_identity,
    matrix_dump,
    spanning_terms,
    unit_words,
)
from .epsilon import CoeffRing
from .expr import ExprSyntaxError, compile_grass, compile_trace_poly, parse, reject_trace
from .grassmann import GrassAlgebra, esgn
from .hull import all_sign_maps, idempotent_system_check, projected_commutation_check
from .rings import CapabilityError, ring_from_spec
from .supertrace import (
    NonMultilinearError,
    SuperTraceContext,
    TraceArgumentError,
    TraceInternalError,
    eval_trace_poly,
    trace_normalize,
    witness_search,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_CAPABILITY = 3
EXIT_INTERNAL = 4
EXIT_PIPE = 141

# The bounds of the integer options, checked before any work: command ->
# [(option, name in messages, lowest, highest, flag or None)]; a
# bound with a flag applies only when that flag is set.  The co-module
# certificate reaches arity 12 in 1.7-1.9 s cold (BENCH_14.json), but the
# sign table behind signs and --dump-matrix holds n! rows (9-14 s at 8).
# idempotents costs O(4^X) products (16 s over Q at --X 6); a witness
# search that exhausts its attempts takes 7.5 s at --max-n 6.
# check-identity runs at most one subset transform per maximal vertex
# set of its monomials' inversion graphs, 2^n fields at n letters: the
# budget is 10 s and 256 MB cold, for the reversed word xn*...*x1 and
# for 50 seeded random permutations, which --vars 20 meets.
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


def _emit(args, payload: dict, text_lines: Iterable[str]) -> None:
    if args.format == "json":
        for chunk in json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload):
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
            raise _Usage(f"{name} must be between {lo} and {hi}")
    ring = ring_from_spec(args.ring)

    if command == "normalize":
        algebra = GrassAlgebra(CoeffRing(ring), truncated=args.truncated)
        elem = compile_grass(parse(args.expr), algebra, vars_as_generators=True)
        payload = {
            "command": command,
            "ring": ring.name,
            "result": elem.render(),
            "details": {"expr": elem.render_expr(), "zero": elem.is_zero()},
        }
        _emit(args, payload, [elem.render()])
        return EXIT_OK

    if command == "check-identity":
        tree = parse(args.expr)
        reject_trace(tree)
        poly = compile_trace_poly(tree, ring)
        try:
            f = MultilinearPoly.from_word_poly(poly, args.vars)
        except ValueError as err:
            raise _Usage(str(err)) from None
        verdict = is_identity(f)
        payload = {
            "command": command,
            "ring": ring.name,
            "result": bool(verdict),
            "details": {"vars": args.vars},
        }
        _emit(args, payload, ["identity" if verdict else "not an identity"])
        return EXIT_OK if verdict else EXIT_NEGATIVE

    if command == "comodule":
        rank = comodule_rank(args.n, ring)
        free = freeness_certificate(args.n)
        basis = [t.render() for t in spanning_terms(args.n)]
        payload = {
            "command": command,
            "ring": ring.name,
            "result": rank,
            "details": {"free": free, "basis": basis, "n": args.n},
        }
        lines = [f"rank {rank}", f"free: {'yes' if free else 'no'}", "basis:"]
        lines.extend(f"  {b}" for b in basis)
        if args.dump_matrix:
            lines = chain(lines, matrix_dump(args.n))
        _emit(args, payload, lines)
        return EXIT_OK if free else EXIT_NEGATIVE

    if command == "signs":
        # rows are rendered one at a time: text prints each as it comes,
        # and JSON keeps only the rendered strings of its payload
        coeff = CoeffRing(ring)
        words = unit_words(args.n)
        rows = (
            (sigma, esgn(coeff, words, sigma).render())
            for sigma in permutations(range(1, args.n + 1))
        )
        if args.format == "text":
            for sigma, value in rows:
                print(f"{''.join(map(str, sigma))}: {value}")
            return EXIT_OK
        payload = {
            "command": command,
            "ring": ring.name,
            "result": [{"sigma": list(sigma), "esgn": value} for sigma, value in rows],
            "details": {"n": args.n},
        }
        _emit(args, payload, [])
        return EXIT_OK

    if command == "idempotents":
        coeff = CoeffRing(ring)
        indices = range(1, args.x_size + 1)
        complete = idempotent_system_check(coeff, indices)
        algebra = GrassAlgebra(coeff)
        commutation = all(
            projected_commutation_check(algebra, signs)
            for signs in all_sign_maps(indices)
        )
        ok = complete and commutation
        payload = {
            "command": command,
            "ring": ring.name,
            "result": bool(ok),
            "details": {
                "complete_system": complete,
                "projected_commutation": commutation,
                "count": 2 ** args.x_size,
            },
        }
        _emit(
            args,
            payload,
            [
                f"complete system: {'yes' if complete else 'no'}",
                f"projected commutation: {'yes' if commutation else 'no'}",
            ],
        )
        return EXIT_OK if ok else EXIT_NEGATIVE

    if command == "trace-check":
        f = compile_trace_poly(parse(args.expr), ring)
        form = trace_normalize(f)
        verdict = form.is_zero()
        payload = {
            "command": command,
            "ring": ring.name,
            "result": bool(verdict),
            "details": {"standard_form": form.render()},
        }
        _emit(
            args,
            payload,
            [
                "identity" if verdict else "not an identity",
                f"standard form: {form.render()}",
            ],
        )
        return EXIT_OK if verdict else EXIT_NEGATIVE

    if command == "trace-witness":
        f = compile_trace_poly(parse(args.expr), ring)
        form = trace_normalize(f)
        if form.is_zero():
            payload = {
                "command": command,
                "ring": ring.name,
                "result": None,
                "details": {"identity": True},
            }
            _emit(args, payload, ["identity; no witness exists"])
            return EXIT_NEGATIVE
        witness = witness_search(f, max_n=args.max_n, seed=args.seed)
        if witness is None:
            payload = {
                "command": command,
                "ring": ring.name,
                "result": None,
                "details": {"identity": False, "max_n": args.max_n},
            }
            _emit(args, payload, [f"no witness found up to size {args.max_n}"])
            return EXIT_NEGATIVE
        algebra = GrassAlgebra(CoeffRing(ring))
        ctx = SuperTraceContext(witness.size, algebra)
        value = eval_trace_poly(f, ctx, witness.matrices(ctx))
        payload = {
            "command": command,
            "ring": ring.name,
            "result": witness.render(),
            "details": {
                "size": witness.size,
                "nonzero": not value.is_zero(),
            },
        }
        _emit(args, payload, [f"witness: {witness.render()}"])
        return EXIT_OK

    raise AssertionError(command)


class _Usage(Exception):
    pass


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
    except (ExprSyntaxError, NonMultilinearError, TraceArgumentError, _Usage, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except CapabilityError as err:
        print(f"capability error: {err}", file=sys.stderr)
        return EXIT_CAPABILITY
    except (InternalError, TraceInternalError) as err:
        print(f"internal error: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
