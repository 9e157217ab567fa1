"""Reference arithmetic for the benchmark's correctness checks.

Nothing here imports epsgrass.  The checks compare the program's answers
with what these small routines compute from the definitions:

* ``C[eps]`` with eps_i^2 = theta*eps_i and theta^2 = 2, a monomial being
  ``(theta degree, bitmask of eps indices)``;
* the sign of reordering distinct generators, the product of
  (1 - eps_a*eps_b) over the inversions of the order;
* noncommutative polynomials (word tuple -> int), for spanning terms and
  consequences of the Grassmann identity [[x,y],z] = 0;
* trace polynomials (term tuple -> int, where an atom is a letter or
  ``("T", term)``), parsed from the expression grammar, and their values
  in 2x2 matrices over the twisted Grassmann algebra.
"""

from __future__ import annotations

import re
from itertools import combinations

# -- C[eps] --------------------------------------------------------------------

ONE = {(0, 0): 1}


def ceps_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for (t1, m1), c1 in a.items():
        for (t2, m2), c2 in b.items():
            # every shared eps_i gives one theta; theta^2 = 2
            t = t1 + t2 + (m1 & m2).bit_count()
            key = (t & 1, m1 | m2)
            out[key] = out.get(key, 0) + ((c1 * c2) << (t >> 1))
    return {k: v for k, v in out.items() if v}


def sign_of_order(seq) -> dict:
    """Coefficient of e_{seq[0]}...e_{seq[-1]} against the sorted word."""
    acc = ONE
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                pair = (1 << seq[i]) | (1 << seq[j])
                acc = ceps_mul(acc, {(0, 0): 1, (0, pair): -1})
    return acc


def mask_of(eps) -> int:
    out = 0
    for i in eps:
        out |= 1 << i
    return out


# -- noncommutative polynomials ------------------------------------------------


def nc_word(letters) -> dict:
    return {tuple(letters): 1}


def nc_add(a: dict, b: dict, scale: int = 1) -> dict:
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + scale * c
    return {w: c for w, c in out.items() if c}


def nc_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            out[wa + wb] = out.get(wa + wb, 0) + ca * cb
    return {w: c for w, c in out.items() if c}


def nc_comm(a: dict, b: dict) -> dict:
    return nc_add(nc_mul(a, b), nc_mul(b, a), -1)


def spanning_partitions(n: int) -> list[tuple[tuple, tuple]]:
    """(prefix, tail): an ascending even-size tail and the other letters."""
    out = []
    for r in range(0, n + 1, 2):
        for tail in combinations(range(1, n + 1), r):
            out.append((tuple(i for i in range(1, n + 1) if i not in tail), tail))
    return out


def spanning_poly(prefix, tail) -> dict:
    p = nc_word(prefix)
    for a, b in zip(tail[::2], tail[1::2]):
        p = nc_mul(p, nc_comm(nc_word([a]), nc_word([b])))
    return p


def spanning_render(prefix, tail) -> str:
    parts = [f"x{i}" for i in prefix]
    parts.extend(f"[x{a},x{b}]" for a, b in zip(tail[::2], tail[1::2]))
    return "*".join(parts) if parts else "1"


def word_text(letters) -> str:
    return "*".join(f"x{i}" for i in letters)


def grassmann_consequence(rng, letters):
    """u*[[a,b],c]*v for a random split of the letters into nonempty
    words a, b, c and possibly empty words u, v: (text, polynomial)."""
    word = list(letters)
    rng.shuffle(word)
    n = len(word)
    cut_a, cut_b = sorted(rng.sample(range(1, n), 2))
    size_u = rng.randint(0, n - cut_b - 1)
    size_v = rng.randint(0, n - cut_b - 1 - size_u)
    u, a, b = word[:size_u], word[size_u : size_u + cut_a], word[size_u + cut_a : size_u + cut_b]
    c, v = word[size_u + cut_b : n - size_v], word[n - size_v :]
    inner = nc_comm(nc_comm(nc_word(a), nc_word(b)), nc_word(c))
    poly = nc_mul(nc_mul(nc_word(u), inner), nc_word(v))
    text = "*".join(
        filter(None, [word_text(u), f"[[{word_text(a)},{word_text(b)}],{word_text(c)}]", word_text(v)])
    )
    return text, poly


def join_terms(terms) -> str:
    """Render [(int coefficient, body text)] in the expression grammar."""
    chunks = []
    for c, body in terms:
        mag = f"{abs(c)}*{body}" if abs(c) != 1 else body
        if not chunks:
            chunks.append(f"-{mag}" if c < 0 else mag)
        else:
            chunks.append(f"- {mag}" if c < 0 else f"+ {mag}")
    return " ".join(chunks)


# -- trace polynomials ----------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(\d+)|x(\d+)|(Tr)|([-+*()\[\],]))")


def parse_trace(text: str) -> dict:
    """Expand an expression in letters x<k>, integers, +, -, *, [a,b] and
    Tr(...) into a trace polynomial."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ValueError(f"cannot parse {text[pos:pos + 10]!r}")
            break
        if m.group(1):
            tokens.append(("int", int(m.group(1))))
        elif m.group(2):
            tokens.append(("x", int(m.group(2))))
        elif m.group(3):
            tokens.append(("Tr", None))
        else:
            tokens.append((m.group(4), None))
        pos = m.end()
    tokens.append(("end", None))
    k = 0

    def peek():
        return tokens[k][0]

    def take(kind):
        nonlocal k
        if tokens[k][0] != kind:
            raise ValueError(f"expected {kind!r}, found {tokens[k][0]!r} in {text!r}")
        k += 1
        return tokens[k - 1][1]

    def expr():
        negate = False
        if peek() == "-":
            take("-")
            negate = True
        acc = term()
        if negate:
            acc = {t: -c for t, c in acc.items()}
        while peek() in ("+", "-"):
            op = peek()
            take(op)
            acc = nc_add(acc, term(), 1 if op == "+" else -1)
        return acc

    def term():
        acc = factor()
        while peek() == "*":
            take("*")
            acc = nc_mul(acc, factor())
        return acc

    def factor():
        kind = peek()
        if kind == "int":
            c = take("int")
            return {(): c} if c else {}
        if kind == "x":
            return {(take("x"),): 1}
        if kind == "Tr":
            take("Tr")
            take("(")
            inner = expr()
            take(")")
            return {(("T", t),): c for t, c in inner.items()}
        if kind == "(":
            take("(")
            inner = expr()
            take(")")
            return inner
        if kind == "[":
            take("[")
            a = expr()
            take(",")
            b = expr()
            take("]")
            return nc_add(nc_mul(a, b), nc_mul(b, a), -1)
        raise ValueError(f"unexpected {kind!r} in {text!r}")

    out = expr()
    take("end")
    return out


def reduce_mod(poly: dict, m: int | None) -> dict:
    if m is None:
        return poly
    return {t: c % m for t, c in poly.items() if c % m}


def has_trace(poly: dict) -> bool:
    return any(not isinstance(a, int) for t in poly for a in t)


def _mat_mul(a, b):
    return (
        (a[0][0] * b[0][0] + a[0][1] * b[1][0], a[0][0] * b[0][1] + a[0][1] * b[1][1]),
        (a[1][0] * b[0][0] + a[1][1] * b[1][0], a[1][0] * b[0][1] + a[1][1] * b[1][1]),
    )


_IDENTITY = ((1, 0), (0, 1))


def _eval_term(term, mats):
    flat: list[int] = []
    m = _IDENTITY
    for atom in term:
        if isinstance(atom, int):
            flat.append(atom)
            m = _mat_mul(m, mats[atom])
        else:
            inner_flat, inner = _eval_term(atom[1], mats)
            flat.extend(inner_flat)
            tr = inner[0][0] + inner[1][1]
            m = ((m[0][0] * tr, m[0][1] * tr), (m[1][0] * tr, m[1][1] * tr))
    return flat, m


def trace_value(poly: dict, mats: dict, modulus: int | None) -> dict:
    """Value of a multilinear trace polynomial at x_i -> e_i * mats[i] in
    2x2 matrices over the twisted Grassmann algebra, with F the matrix
    trace times the identity.  Every term is a multiple of the sorted word
    e_1...e_n, so the value is the C[eps] (x) M_2 coefficient of that word,
    keyed by (theta, eps mask, row, column)."""
    acc: dict = {}
    for term, c in poly.items():
        flat, m = _eval_term(term, mats)
        for (t, mask), s in sign_of_order(flat).items():
            for r in (0, 1):
                for col in (0, 1):
                    v = c * s * m[r][col]
                    if v:
                        key = (t, mask, r, col)
                        acc[key] = acc.get(key, 0) + v
    if modulus is not None:
        return {k: v % modulus for k, v in acc.items() if v % modulus}
    return {k: v for k, v in acc.items() if v}
