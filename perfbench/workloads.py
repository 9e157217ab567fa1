"""The benchmark's three workloads: inputs, the call that answers each
query, and the checks of the answers.

Each workload builds a fixed list of queries from a seed.  The seed picks
every coefficient, and the letter orders and nesting of the trace
polynomials; the shapes (arities, rings, trace block patterns) are fixed,
so every seed does the same kind and amount of work.  The letters of the
consequences of [[x,y],z] come from a generator with a fixed seed
(``LAYOUT_SEED``): the cost of testing one word grows steeply with the way
its letters are interleaved (its sign expands to between 2 and 2^(n+1)
terms), and seeded arrangements moved the work of an identities pass by
about 10% from one seed to the next.  Checks compare every answer with
the reference arithmetic in ``oracle`` or with a property the answer must
have, never with a stored copy of an earlier answer.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import re
from contextlib import redirect_stderr, redirect_stdout
from math import factorial
from typing import NamedTuple

from epsgrass import cli, comodule
from epsgrass.comodule import MultilinearPoly
from epsgrass.rings import ZZ

import oracle

NONZERO = (-3, -2, -1, 1, 2, 3)
# units of Z, Q, Z/4 and Z/3 alike: no term vanishes over one ring only,
# so every ring does the same work
UNITS = (-7, -5, -1, 1, 5, 7)
LAYOUT_SEED = 0


class Query(NamedTuple):
    kind: str  # "cli": argv for epsgrass.cli.main; "nf": a MultilinearPoly
    arg: object
    expect: object  # what the check needs; never a stored answer


def inputs_digest(queries) -> str:
    """A fingerprint of everything the program receives."""
    items = [q.arg if q.kind == "cli" else sorted(q.arg.coeffs.items()) for q in queries]
    return hashlib.sha256(repr(items).encode()).hexdigest()


def run_cli(argv) -> tuple[int, str]:
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _json(answer):
    code, text = answer
    return code, json.loads(text)


class Comodule:
    """Certify the sign co-module the way ``epsgrass comodule`` does, over
    Z, Q, F2 and F3, then take Grassmann normal forms of polynomials of a
    higher arity.  The certification exercises the epsilon kernel (the
    sign table) and integer elimination; the normal forms exercise esgn,
    psi and the cached Smith solve."""

    name = "comodule"
    RINGS = ("z", "q", "mod:2", "mod:3")

    def __init__(self, tiny: bool = False):
        self.cert_n = 3 if tiny else 6
        self.nf_n = 4 if tiny else 7
        self.nf_queries = 2 if tiny else 4
        self.sign_rows = 6 if tiny else 24
        self.warm_passes = 1 if tiny else 2

    def generate(self, rng: random.Random) -> list[Query]:
        queries = []
        n = self.cert_n
        sample = sorted(rng.sample(range(factorial(n)), min(self.sign_rows, factorial(n))))
        for ring in self.RINGS:
            argv = ["comodule", "--n", str(n), "--ring", ring, "--format", "json"]
            queries.append(Query("cli", argv, (ring, sample)))
        letters = range(1, self.nf_n + 1)
        partitions = oracle.spanning_partitions(self.nf_n)
        layout = random.Random(LAYOUT_SEED)
        for _ in range(self.nf_queries):
            coords = {p: rng.choice(NONZERO) for p in partitions}
            poly: dict = {}
            for (prefix, tail), c in coords.items():
                poly = oracle.nc_add(poly, oracle.spanning_poly(prefix, tail), c)
            for _ in range(3):
                _, cons = oracle.grassmann_consequence(layout, letters)
                poly = oracle.nc_add(poly, cons, rng.choice(NONZERO))
            queries.append(Query("nf", MultilinearPoly(self.nf_n, ZZ, poly), coords))
        return queries

    def run(self, q: Query):
        if q.kind == "cli":
            return run_cli(q.arg)
        return comodule.grassmann_normal_form(q.arg)

    def check(self, queries, answers) -> dict[int, str]:
        bad = {}
        n = self.cert_n
        basis = sorted(oracle.spanning_render(*p) for p in oracle.spanning_partitions(n))
        for k, (q, a) in enumerate(zip(queries, answers)):
            if q.kind == "nf":
                got = {(tuple(t[0]), tuple(t[1])): c for t, c in a.items()}
                if got != q.expect:
                    bad[k] = "normal form coordinates differ from the construction"
                continue
            code, out = _json(a)
            ring, sample = q.expect
            if code != 0 or out["result"] != 2 ** (n - 1):
                bad[k] = f"rank {out['result']} over {ring}, expected {2 ** (n - 1)}"
            elif out["details"]["free"] is not True:
                bad[k] = "freeness certificate failed"
            elif sorted(out["details"]["basis"]) != basis:
                bad[k] = "basis differs from the prefix/tail partitions"
            elif ring == "z":
                perms, cols, rows = comodule.sign_matrix_int(n)
                for i in sample:
                    row = {
                        (t, oracle.mask_of(eps)): v
                        for (t, eps), v in zip(cols, rows[i])
                        if v
                    }
                    if row != oracle.sign_of_order(perms[i]):
                        bad[k] = f"sign table row {perms[i]} is wrong"
                        break
        return bad


class Identities:
    """``check-identity`` at arities 4-7 over Z, Q, Z/4 and Z/3, and
    ``normalize`` on products with repeated generators, all through the
    CLI.  Algebra products and scalar rings only: no linear algebra and no
    cache, so every change to those leaves this workload unchanged.  The
    repeated generators reach the torsion reduction that multilinear words
    never reach."""

    name = "identities"
    RINGS = ("z", "q", "mod:4", "mod:3")

    def __init__(self, tiny: bool = False):
        self.arities = (3, 4) if tiny else (4, 5, 6, 7)
        self.rings = self.RINGS[:2] if tiny else self.RINGS
        self.products = 2 if tiny else 8
        self.warm_passes = 1 if tiny else 4

    def generate(self, rng: random.Random) -> list[Query]:
        queries = []
        layout = random.Random(LAYOUT_SEED)
        for n in self.arities:
            letters = range(1, n + 1)
            # two fixed spanning terms; the seed picks their coefficients
            b1 = (tuple(range(1, n - 1)), (n - 1, n))
            b2 = (tuple(range(5, n + 1)), (1, 2, 3, 4)) if n >= 4 else (tuple(letters), ())
            for ring in self.rings:
                terms = [
                    (rng.choice(UNITS), oracle.grassmann_consequence(layout, letters)[0])
                    for _ in range(3)
                ]
                queries.append(self._check_query(oracle.join_terms(terms), n, ring, True))
                terms = [
                    (rng.choice((1, -1)), oracle.spanning_render(*b1)),
                    (rng.choice(UNITS), oracle.spanning_render(*b2)),
                    (rng.choice(UNITS), oracle.grassmann_consequence(layout, letters)[0]),
                ]
                queries.append(self._check_query(oracle.join_terms(terms), n, ring, False))
        for k in range(self.products):
            ring = self.RINGS[k % len(self.RINGS)]
            f1, f2, f3 = (self._factor(rng) for _ in range(3))
            for text in (f"(({f1})*({f2}))*({f3})", f"({f1})*(({f2})*({f3}))"):
                argv = ["normalize", "--ring", ring, "--format", "json", "--", text]
                queries.append(Query("cli", argv, ("product", k, ring)))
        return queries

    @staticmethod
    def _check_query(text, n, ring, identity) -> Query:
        argv = ["check-identity", "--vars", str(n), "--ring", ring, "--format", "json", "--", text]
        return Query("cli", argv, ("identity", identity))

    @staticmethod
    def _factor(rng) -> str:
        """(c0 +- c1*eps_i*eps_j +- c2*theta*eps_k) times two generators out
        of e1..e3; three such factors always repeat a generator."""
        i, j = sorted(rng.sample(range(1, 5), 2))
        k = rng.randint(1, 4)
        s1, s2 = rng.choice("+-"), rng.choice("+-")
        c0, c1, c2 = (rng.choice((1, 2)) for _ in range(3))  # nonzero in every ring
        coeff = f"{c0} {s1} {c1}*eps{i}*eps{j} {s2} {c2}*theta*eps{k}"
        word = "*".join(f"e{rng.randint(1, 3)}" for _ in range(2))
        return f"({coeff})*{word}"

    def run(self, q: Query):
        return run_cli(q.arg)

    def check(self, queries, answers) -> dict[int, str]:
        bad = {}
        products: dict = {}
        for k, (q, a) in enumerate(zip(queries, answers)):
            code, out = _json(a)
            if q.expect[0] == "identity":
                want = q.expect[1]
                if code != (0 if want else 1) or out["result"] is not want:
                    bad[k] = f"identity verdict {out['result']}, expected {want}"
                continue
            _, pair, ring = q.expect
            if code != 0:
                bad[k] = f"normalize exited {code}"
                continue
            products.setdefault(pair, []).append(k)
            again = run_cli(["normalize", "--ring", ring, "--format", "json", "--", out["details"]["expr"]])
            if _json(again)[1]["result"] != out["result"]:
                bad[k] = "normal form is not a fixed point"
        for pair in products.values():
            if len({_json(answers[k])[1]["result"] for k in pair}) > 1:
                bad[pair[-1]] = "product depends on the grouping"
        return bad


# Block patterns of the trace standard form: the letters outside every
# trace, and the own letters of each trace.  Terms of one pattern fall in
# one basis block, so the blocks that a list certifies do not depend on
# the seed.
TRACE_PATTERNS = (
    ({1}, ({2, 3},)),
    ({1, 2}, ({3},)),
    ((), ({1, 2}, {3})),
    ({1, 2}, ({3, 4},)),
    ({1}, ({2}, {3, 4})),
    ((), ({1, 2}, {3, 4})),
    ({1, 2, 3}, ({4},)),
    ({1, 2}, ({3}, {4, 5})),
    ({1}, ({2, 3, 4}, {5})),
    ((), ({1, 2, 3}, {4, 5})),
    ({5}, ({1, 2, 3, 4},)),
    ((), ({1, 2, 3, 4, 5},)),
)

FIXED_TRACE_QUERIES = ("Tr(x1*x2*x3*x4*x5)", "[x1,x2]*[x3,x4]*[x5,x6]")


def _pattern_term(rng, outer, parts) -> str:
    """A random term of one block pattern: random nesting of the traces,
    random order within each level, sometimes a commutator of two
    neighbours.  Every trace argument keeps letters of its own."""
    parts = [sorted(p) for p in parts]
    order = list(range(len(parts)))
    rng.shuffle(order)
    children: dict = {-1: []}
    for pos, i in enumerate(order):
        parent = -1 if pos == 0 or rng.random() < 0.5 else rng.choice(order[:pos])
        children.setdefault(parent, []).append(i)
        children.setdefault(i, [])

    def level(own, node):
        items = [f"x{i}" for i in own]
        items.extend(f"Tr({level(parts[c], c)})" for c in children[node])
        rng.shuffle(items)
        if len(items) >= 2 and rng.random() < 0.4:
            j = rng.randrange(len(items) - 1)
            items[j : j + 2] = [f"[{items[j]},{items[j + 1]}]"]
        return "*".join(items)

    return level(sorted(outer), -1)


def _trace_consequence(rng, letters, axiom) -> str:
    """A consequence of one of the four defining identities, with words
    substituted for x, y, z and outer words multiplied on."""
    letters = list(letters)
    rng.shuffle(letters)
    need = 2 if axiom < 2 else 3
    cuts = sorted(rng.sample(range(1, len(letters)), need - 1)) if need > 1 else []
    bounds = [0] + cuts + [len(letters)]
    groups = [letters[bounds[i] : bounds[i + 1]] for i in range(need)]
    last = groups[-1]
    outer_u = [last.pop() for _ in range(rng.randint(0, len(last) - 1))]
    outer_v = [last.pop() for _ in range(rng.randint(0, len(last) - 1))]
    x, y = oracle.word_text(groups[0]), oracle.word_text(groups[1])
    z = oracle.word_text(groups[2]) if need == 3 else ""
    body = (
        f"Tr(Tr({x})*{y}) - Tr({x})*Tr({y})",
        f"Tr({x}*Tr({y})) - Tr({x})*Tr({y})",
        f"[{x},Tr([{y},{z}])]",
        f"[Tr({x}),[Tr({y}),{z}]]",
    )[axiom]
    u, v = oracle.word_text(outer_u), oracle.word_text(outer_v)
    text = "*".join(filter(None, [u, f"({body})", v]))
    if (u or v) and rng.random() < 0.3:
        text = f"Tr({text})"
    return text


def _plain_term(rng, n) -> str:
    """A product of letters and commutators of words in all n letters."""
    letters = list(range(1, n + 1))
    rng.shuffle(letters)
    factors = []
    while letters:
        if len(letters) >= 2 and rng.random() < 0.7:
            cut = rng.randint(2, min(4, len(letters)))
            chunk, letters = letters[:cut], letters[cut:]
            split = rng.randint(1, len(chunk) - 1)
            factors.append(
                f"[{oracle.word_text(chunk[:split])},{oracle.word_text(chunk[split:])}]"
            )
        else:
            factors.append(f"x{letters.pop()}")
    return "*".join(factors)


class Trace:
    """``trace-check`` on multilinear trace polynomials of up to five
    letters, over Z and Z/4, plus plain six-letter words.  The single
    five-letter trace and the plain six-letter block are the largest
    certifications (model evaluation and the Smith form); later queries
    of those blocks use the cached solve."""

    name = "trace"
    RINGS = ("z", "z", "mod:4")  # one query in three over Z/4

    def __init__(self, tiny: bool = False):
        self.fixed = ("Tr(x1*x2*x3)",) if tiny else FIXED_TRACE_QUERIES
        self.patterns = TRACE_PATTERNS[:3] if tiny else TRACE_PATTERNS
        self.plain_n = 4 if tiny else 6
        self.plain_queries = 1 if tiny else 2
        self.axiom_queries = 4 if tiny else 6
        self.warm_passes = 1 if tiny else 6

    def generate(self, rng: random.Random) -> list[Query]:
        entries = [(text, "z", False) for text in self.fixed]
        for k in range(self.plain_queries):
            terms = [(rng.choice(NONZERO), _plain_term(rng, self.plain_n)) for _ in range(2)]
            entries.append((oracle.join_terms(terms), self.RINGS[k % 3], False))
        for k, (outer, parts) in enumerate(self.patterns):
            n = len(outer) + sum(len(p) for p in parts)
            terms = [(rng.choice(NONZERO), _pattern_term(rng, outer, parts)) for _ in range(3)]
            if n >= 3:
                cons = _trace_consequence(rng, range(1, n + 1), rng.randrange(4))
                terms.append((rng.choice(NONZERO), cons))
            entries.append((oracle.join_terms(terms), self.RINGS[k % 3], False))
        for k in range(self.axiom_queries):
            n = 3 + k % 3
            terms = [
                (rng.choice(NONZERO), _trace_consequence(rng, range(1, n + 1), (k + j) % 4))
                for j in range(2)
            ]
            entries.append((oracle.join_terms(terms), self.RINGS[k % 3], True))
        queries = []
        for text, ring, consequence in entries:
            n = max(int(i) for i in re.findall(r"x(\d+)", text))
            mats = [
                {i: tuple(tuple(rng.randint(-3, 3) for _ in range(2)) for _ in range(2)) for i in range(1, n + 1)}
                for _ in range(2)
            ]
            argv = ["trace-check", "--ring", ring, "--format", "json", "--", text]
            queries.append(Query("cli", argv, (text, ring, consequence, mats)))
        return queries

    def run(self, q: Query):
        return run_cli(q.arg)

    def check(self, queries, answers) -> dict[int, str]:
        bad = {}
        for k, (q, a) in enumerate(zip(queries, answers)):
            text, ring, consequence, mats = q.expect
            modulus = int(ring[4:]) if ring.startswith("mod:") else None
            code, out = _json(a)
            form = out["details"]["standard_form"]
            if code != (0 if form == "0" else 1) or out["result"] is not (form == "0"):
                bad[k] = "verdict disagrees with the standard form"
                continue
            f = oracle.parse_trace(text)
            sf = oracle.parse_trace(form)
            if consequence and form != "0":
                bad[k] = "a consequence of the axioms did not normalize to 0"
                continue
            if not oracle.has_trace(f) and oracle.reduce_mod(f, modulus) != oracle.reduce_mod(sf, modulus):
                bad[k] = "a plain-word polynomial is not its own standard form"
                continue
            if any(oracle.trace_value(f, m, modulus) != oracle.trace_value(sf, m, modulus) for m in mats):
                bad[k] = "f minus its standard form is not zero on 2x2 matrices"
                continue
            if form != "0":
                again = run_cli(["trace-check", "--ring", ring, "--format", "json", "--", form])
                if _json(again)[1]["details"]["standard_form"] != form:
                    bad[k] = "the standard form does not normalize to itself"
        return bad


WORKLOADS = {w.name: w for w in (Comodule, Identities, Trace)}
