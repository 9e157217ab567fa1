"""Multilinear polynomials, identity testing and the sign co-module.

A multilinear polynomial of arity n is a map from permutations of
{1..n} to coefficients; x_{s(1)}...x_{s(n)} is keyed by the image tuple
s.  Substituting the generators e_1..e_n decides membership in the
identity ideal of the twisted Grassmann algebra: f(e_1, ..., e_n) =
psi(f)*e_1...e_n, so f is an identity iff psi(f) = 0.  The sign image
psi(f) = sum of a_s*esgn(s) sums the exps of the inversion graphs with
no esgn and no algebra product: one subset transform per maximal set of
inverted letters (``epsilon._sum_exps``), fed parity words read off the
permutations in one pass per chunk of the set, through XOR tables and
rows built once per shape (``_inversion_parity``); ``is_identity`` tests
its int sums in the ring.

The generalized signs span a free module of rank 2^(n-1).  The sign
images B of an explicit spanning set (ascending prefix times
commutators in ascending disjoint pairs) have a closed form
(``SpanningTerm.sign_image``): row T is eps_T * prod_{p in Q}(1 -
theta*eps_p), where (T, Q) is the term's descriptor, T its tail and Q
the letters of its prefix above an odd number of letters of T
(``_odd_letters``).  So B is unitriangular: row T holds 1 at eps_T, and
its other monomials sit at strict supersets of T.  That proves an
all-ones Smith diagonal over every base ring, and makes B an echelon
that the unit-pivot ``SmithSolver`` of ``linalg`` keeps as it is, with
pivot eps_T for row T; the normal forms solve against it, checked by psi
of the residual.  The rank certificate (``comodule_rank``, which reads
no n!-row sign table) takes no reduction and no product of rows: S_n
acts on B explicitly, each s_k = (k k+1) sending a row of B to plus or
minus one row or to the difference of two (``_adjacent_rule``).  s_k
moves only the factor of a row on the letters k and k+1, so each of
these (n-1)*2^(n-1) equalities is checked on the descriptors, with one
two-letter identity per pattern of their bits on {k, k+1}.
"""

from __future__ import annotations

from bisect import bisect
from fractions import Fraction
from functools import cached_property
from itertools import combinations, permutations
from typing import Iterable, Iterator, Sequence

from .epsilon import CoeffRing, EpsPoly, InternalError, all_monomials, exp_map, phi_sigma
from .grassmann import GrassElem, esgn, word_from_letters
from .linalg import NoUnitPivot, SmithSolver
from .rings import BaseRing, IntegerRing
from .terms import TermMap, TracePoly, add_term
from . import epsilon

# The largest arity of the co-module certificate, whose budget is 30 s
# cold.  On a shared 2-vCPU VM whose speed toggles, `comodule --n` takes
# 0.15 s at n = 12 (19 MB peak RSS), 0.28-0.32 s at 13 (24 MB),
# 0.60-1.05 s at 14 (36 MB) and 1.3-1.6 s at 15 (65 MB), most of it
# building and rendering B; with the bound lifted, the certificate and
# the rendered terms take 3.4-3.9 s at 132 MB for n = 16.  Raising the
# bound waits for a probe of every bound on the same host.
MAX_COMODULE_ARITY = 15
# ``epsgrass signs`` and ``matrix_dump`` list all n! signs of S_n.
MAX_SIGN_TABLE_ARITY = 8


class MultilinearPoly(TermMap):
    """Arity-n multilinear polynomial: permutation tuple -> coefficient."""

    __slots__ = ("n", "ring")

    def __init__(self, n: int, ring: BaseRing, coeffs: dict):
        self.n = n
        self.ring = ring
        for key, c in coeffs.items():
            if sorted(key) != list(range(1, n + 1)):
                raise ValueError(f"{key} is not a permutation of 1..{n}")
            if ring.is_zero(c):
                raise ValueError("zero coefficient stored")
        self.terms = coeffs

    @property
    def coeffs(self) -> dict:
        return self.terms

    def _parent(self) -> tuple:
        return (self.n, self.ring)

    @classmethod
    def from_word_poly(cls, p: TracePoly, n: int) -> "MultilinearPoly":
        """The polynomial p as arity n; p must not apply Tr."""
        if not all(isinstance(a, int) for w in p.terms for a in w):
            raise ValueError("Tr(...) is only allowed in trace expressions")
        for w in p.terms:
            if sorted(w) != list(range(1, n + 1)):
                raise ValueError(
                    f"monomial {w} is not multilinear in x1..x{n}"
                )
        return cls(n, p.ring, dict(p.terms))

    @classmethod
    def monomial(cls, n: int, ring: BaseRing, perm: Sequence[int], c=None) -> "MultilinearPoly":
        coeff = ring.one() if c is None else c
        return cls(n, ring, {tuple(perm): coeff})

    def render(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for key in sorted(self.terms):
            c = self.ring.render(self.terms[key])
            word = "*".join(f"x{i}" for i in key)
            parts.append(f"[{c}]*{word}")
        return " + ".join(parts)


# -- evaluation and identity testing ------------------------------------


def evaluate(f: MultilinearPoly, subs: Sequence[GrassElem]) -> GrassElem:
    """Multilinear substitution x_i -> subs[i-1], product via the algebra."""
    if len(subs) != f.n:
        raise ValueError(f"expected {f.n} substitutions, got {len(subs)}")
    if not subs:
        raise ValueError("empty substitution")
    algebra = subs[0].algebra
    result = algebra.zero()
    for perm, c in f.coeffs.items():
        term = algebra.one()
        for i in perm:
            term = term * subs[i - 1]
        result = result + term.scale(c)
    return result


def is_identity(f: MultilinearPoly) -> bool:
    """Membership in the identity ideal: f is an identity iff it vanishes
    on the generic substitution x_i -> e_i.

    Reordering e_sigma(1)...e_sigma(n) to e_1...e_n costs esgn(sigma), so
    ``evaluate(f, [e_1, ..., e_n]) = psi(f) * e_1...e_n``, and that word
    carries no torsion: f is an identity iff psi(f) = 0.  No generator
    repeats, so the quotient by the generator squares has the same
    multilinear identities.
    """
    acc, den = _sign_sum(f)
    frm = f.ring.from_int
    return not any(frm(c if den == 1 else Fraction(c, den)) for c in acc.values())


# -- the sign co-module --------------------------------------------------


def unit_words(n: int):
    return [word_from_letters([i]) for i in range(1, n + 1)]


def _inversion_graph(sigma: Sequence[int]) -> list[tuple[int, int]]:
    """The letter pairs {sigma(i), sigma(j)} of the inversions i < j,
    sigma(i) > sigma(j): esgn(sigma) on unit words is their exp."""
    return [(b, a) for k, a in enumerate(sigma) for b in sigma[k + 1:] if b < a]


# The XOR tables and rows of one group of permutations cover chunks of
# at most _TABLE_WIDTH vertices and add at most _TABLE_BYTES bytes of
# words to the field masks: a group of 20 letters gets chunks of one
# vertex, which add none.  That is 512 KB for the tables (more raised the
# peak memory of check-identity on the nested commutator of 14 letters)
# and as much again for the rows.
_TABLE_WIDTH = 8
_TABLE_BYTES = 1 << 20


def _xor_tables(masks: list, chunks: tuple) -> list:
    """Per chunk (lo, hi) of the vertices: the XOR of masks[lo:hi] over
    each subset (kept after the first chunk only), and the row of each
    position p, row[x] = masks[p] & table[x << p - lo + 1]."""
    tables = []
    for lo, hi in chunks:
        table = [0]
        for m in masks[lo:hi]:
            table += [m, *(t ^ m for t in table[1:])]  # m itself, not a copy
        rows = [[m & t for t in table[::2 << p]] for p, m in enumerate(masks[lo:hi])]
        tables.append((table if lo else None, rows))
    return tables


def _inversion_parity(vertices: tuple, masks: list, word_bytes: int, memo: dict):
    """The parity words of the inversion graphs of permutations whose
    inverted letters lie in ``vertices``: field T holds the number of
    inversions inside T mod 2, the XOR over the inversions a > b, a
    before b, of at[a] & at[b], at[v] the field mask of v.

    The vertices, in increasing order, are cut into the fewest chunks of
    about equal size whose tables and rows (``_xor_tables``) fit the
    budget, and kept in ``memo`` by their chunks.  One pass over sigma
    per chunk takes the inversions whose larger letter a is in the chunk:
    it keeps the set ``seen`` of the chunk's letters passed, and at each
    letter b of the chunk XORs row_b[the letters of ``seen`` above b] =
    at[b] & table[those letters] into the word, one read per letter.  The
    letters of earlier chunks are below all of ``seen``, so their masks
    are XORed together until ``seen`` grows and then take one table read
    for the lot.  A letter outside ``vertices`` is in no inversion."""
    k = len(vertices)
    # the fewest chunks, of sizes within one, whose rows (2^c - 1 - c words for
    # c vertices) and tables after the first chunk (as many) fit the budget
    for count in range(-(-k // _TABLE_WIDTH), k + 1):
        chunks = tuple((k * i // count, k * (i + 1) // count) for i in range(count))
        words = sum((1 << hi - lo) - 1 - (hi - lo) << (lo > 0) for lo, hi in chunks)
        if words * word_bytes <= _TABLE_BYTES:
            break
    passes = []  # per chunk: {letter: (its row or at[letter], its bit or 0, its shift)}, table
    if chunks not in memo:
        memo[chunks] = _xor_tables(masks, chunks)
    for (lo, hi), (table, rows) in zip(chunks, memo[chunks]):
        letter = {v: (m, 0, 0) for v, m in zip(vertices[:lo], masks)}
        for p in range(lo, hi):
            letter[vertices[p]] = (rows[p - lo], 1 << p - lo, p - lo + 1)
        passes.append((letter, table))

    def parity(sigma: Sequence[int]) -> int:
        word = 0
        for letter, table in passes:
            seen = pending = 0  # pending: the XOR of at[b] over earlier chunks' b
            for b in sigma:
                got = letter.get(b)
                if got is not None:
                    m, bit, shift = got
                    if bit:
                        s = seen >> shift
                        if s:
                            word ^= m[s]
                        if pending:
                            word ^= pending & table[seen]
                            pending = 0
                        seen |= bit
                    elif seen:
                        pending = pending ^ m if pending else m
            if pending:
                word ^= pending & table[seen]
        return word

    return parity


def _sign_sum(f: MultilinearPoly) -> tuple:
    """(acc, den) of psi(f), by ``epsilon._sum_exps``."""
    return epsilon._sum_exps(_support_items(f), _inversion_graph, _inversion_parity)


def _support_items(f: MultilinearPoly) -> Iterator[tuple]:
    """(the mask of the letters in an inversion, perm, c) per monomial.  A
    letter k is in no inversion iff sigma holds 1..k in its first k
    places, k in place k: iff k is both the letter and the running
    maximum at place k."""
    full = (2 << f.n) - 2
    for perm, c in f.coeffs.items():
        support, top = full, 0
        for k, a in enumerate(perm, 1):
            if a > top:
                top = a
                if a == k:
                    support ^= 1 << k
        yield support, perm, c


def psi(f: MultilinearPoly) -> EpsPoly:
    """Image of f in the sign module: the sum of a_sigma * esgn(e., sigma),
    the exps of the inversion graphs, with one subset transform per
    maximal set of inverted letters and no esgn."""
    return epsilon._to_poly(CoeffRing(f.ring), *_sign_sum(f))


def _adjacent_rule(k: int, tail: int) -> tuple:
    """s_k*b_T as (tail mask, +-1) pairs, T the tail of mask ``tail``."""
    pair = 3 << k
    if tail & pair:
        return ((tail, -1),) if tail & pair == pair else ((tail ^ pair, 1),)
    return ((tail, 1), (tail | pair, -1))


def _sign_rows(n: int, cols: list) -> Iterator[list[int]]:
    """The esgn row over Z of every permutation of 1..n, in lexicographic
    order, dense in the order of the (t, eps) columns ``cols``."""
    coeff = CoeffRing(IntegerRing())
    w = unit_words(n)
    index = {t | sum(1 << i for i in eps): k for k, (t, eps) in enumerate(cols)}
    for s in permutations(range(1, n + 1)):
        row = [0] * len(cols)
        for m, c in esgn(coeff, w, s).terms.items():
            row[index[m]] = c
        yield row


def sign_matrix_int(n: int) -> tuple[list, list, list[list[int]]]:
    """All esgn rows over Z: (permutations, monomial columns, rows)."""
    cols = all_monomials(range(1, n + 1))
    return list(permutations(range(1, n + 1))), cols, list(_sign_rows(n, cols))


def matrix_dump(n: int) -> Iterator[str]:
    """Debug format, line by line: the columns, then one esgn row per
    permutation (lexicographic order), entries in canonical monomial
    column order."""
    cols = all_monomials(range(1, n + 1))
    yield "# columns: " + " ".join(
        ("theta*" if t else "") + ("*".join(f"eps{i}" for i in eps) or "1")
        for t, eps in cols
    )
    for perm, row in zip(permutations(range(1, n + 1)), _sign_rows(n, cols)):
        yield f"{perm}: " + " ".join(map(str, row))


# -- spanning terms and normal forms -------------------------------------


def _odd_letters(term) -> list[int]:
    """Q of a spanning term, ascending: the letters of its prefix above an
    odd number of letters of its tail.  With the tail T, (T, Q) is the
    descriptor of the term's sign row (``sign_image``)."""
    return [p for p in term.prefix if bisect(term.tail, p) & 1]


def _closed_row(tail: int, letters) -> dict:
    """eps_T * prod_{p in letters}(1 - theta*eps_p) as mask -> int, T the
    letters of the mask ``tail``, none of them in ``letters``."""
    return {m | tail: c for m, c in epsilon._expand([1 << p | 1 for p in letters]).items()}


def _holds_locally(tail: int, q: int, targets: tuple) -> bool:
    """The two-letter identity of check (b') on the letters 1 and 2, T and
    Q given by the masks ``tail`` and ``q`` on them: the twisted action
    (1 - eps_1*eps_2)*phi of s_1 on eps_T * prod_{p in Q}(1 - theta*eps_p)
    is the sum of c times the factor of (T', Q') over the targets
    (T', Q', c)."""
    cz = CoeffRing(IntegerRing())

    def factor(t: int, q: int) -> EpsPoly:
        return EpsPoly(cz, _closed_row(t, [p for p in (1, 2) if q >> p & 1]))

    moved = exp_map(cz, [(2, 1)]) * phi_sigma({1: 2, 2: 1}, factor(tail, q))
    return moved == sum((factor(t, q).scale_int(c) for t, q, c in targets), cz.zero())


class SpanningTerm(tuple):
    """Prefix/tail partition of {1..n}: ascending prefix variables times a
    product of commutators of the ascending even-length tail, paired in
    consecutive twos."""

    def __new__(cls, prefix: Iterable[int], tail: Iterable[int]):
        prefix = tuple(prefix)
        tail = tuple(tail)
        if list(prefix) != sorted(prefix) or list(tail) != sorted(tail):
            raise ValueError("prefix and tail must be ascending")
        if len(tail) % 2 != 0:
            raise ValueError("tail must have even length")
        if set(prefix) & set(tail):
            raise ValueError("prefix and tail must be disjoint")
        return super().__new__(cls, (prefix, tail))

    def __getnewargs__(self):
        # pickle and copy rebuild a term through __new__, so its checks run again
        return (self.prefix, self.tail)

    @property
    def prefix(self):
        return self[0]

    @property
    def tail(self):
        return self[1]

    def arity(self) -> int:
        return len(self.prefix) + len(self.tail)

    @cached_property
    def words(self) -> dict:
        """x_P*[x_a1,x_b1]*... as {word: 1 or -1}: each commutator appends
        x_a*x_b, or x_b*x_a with the opposite sign, so the 2^(len(tail)/2)
        words are distinct.  Built on first use and kept on the term."""
        out = {self.prefix: 1}
        for a, b in zip(self.tail[::2], self.tail[1::2]):
            swapped = {w + (b, a): -c for w, c in out.items()}
            out = {w + (a, b): c for w, c in out.items()}
            out.update(swapped)
        return out

    def to_poly(self, ring: BaseRing) -> MultilinearPoly:
        """The polynomial ``words`` over ``ring``."""
        words = self.words.items()
        return MultilinearPoly(self.arity(), ring, {w: ring.from_int(c) for w, c in words})

    def sign_image(self, coeff: CoeffRing) -> EpsPoly:
        """psi(self.to_poly(ring)) in closed form, with no esgn: with T
        the tail and Q the letters of the prefix P above an odd number of
        letters of T (``_odd_letters``), it is eps_T * prod_{p in Q} (1 -
        theta*eps_p).

        Proof: [e_a, e_b] = eps_a*eps_b*e_a*e_b with central
        coefficients, so psi(self) = eps_T * esgn(P T).  P and T ascend,
        so esgn(P T) is the product of 1 - eps_t*eps_p over t < p, t in
        T, p in P.  Next to eps_T that factor is 1 - theta*eps_p (as
        eps_t^2 = theta*eps_t), which squares to 1 (as theta^2 = 2), so
        only the p in Q remain.  Each R in Q gives (-1)^|R| *
        2^floor(|R|/2) at theta^(|R| mod 2) * eps_(T+R): 1 at eps_T, and
        theta-free monomials only at strict supersets of T besides.
        """
        q = [1 << p for p in _odd_letters(self)]
        tail = sum(1 << t for t in self.tail)
        terms = {}
        for r in range(len(q) + 1):
            c = coeff.base.from_int((-1) ** r << r // 2)
            if c and not (r % 2 and coeff.theta_zero):
                for extra in combinations(q, r):
                    terms[tail | sum(extra) | r % 2] = c
        return EpsPoly(coeff, terms)

    def render(self) -> str:
        return self._text

    @cached_property
    def _text(self) -> str:
        """``render``'s text, built on first use and kept on the term like
        ``words``: every ``comodule --n`` query prints the cached terms."""
        parts = [f"x{i}" for i in self.prefix]
        parts.extend(
            f"[x{a},x{b}]" for a, b in zip(self.tail[::2], self.tail[1::2])
        )
        return "*".join(parts) if parts else "1"


def spanning_terms(n: int) -> list[SpanningTerm]:
    out = []
    for r in range(0, n + 1, 2):
        for tail in combinations(range(1, n + 1), r):
            prefix = tuple(i for i in range(1, n + 1) if i not in tail)
            out.append(SpanningTerm(prefix, tail))
    return out


_ROWS_CACHE: dict = {}


def _spanning_rows(n: int):
    """(spanning terms, the ``SmithSolver`` over their sign images B over
    Z, in the order of the terms, on the masks below 2^(n+1)), cached.
    Check (a) runs first: row T is its closed form eps_T *
    prod_{p in Q}(1 - theta*eps_p), with (T, Q) the term's descriptor,
    expanded by ``epsilon._expand`` and not by ``sign_image``'s sum over
    subsets of Q.  That ties the rows to the descriptors that check (b')
    reads; a row that breaks it raises ``InternalError``, as does a
    solver that finds no unit pivot.  Q is disjoint from T, so row T
    holds 1 at eps_T and its other monomials at strict supersets of T:
    eps_T is its smallest unit entry and no row before it has a pivot in
    it.  The solver takes no elimination step and keeps every row with
    pivot eps_T, and its echelon is B, held nowhere else."""
    if n not in _ROWS_CACHE:
        coeff = CoeffRing(IntegerRing())
        terms = spanning_terms(n)
        rows = [term.sign_image(coeff).terms for term in terms]
        for term, row in zip(terms, rows):
            if row != _closed_row(sum(1 << t for t in term.tail), _odd_letters(term)):
                raise InternalError(
                    f"spanning set at arity {n} is not certified free: "
                    f"the row of {term.render()} is not its closed form"
                )
        try:
            solver = SmithSolver(rows, 2 << n)
        except NoUnitPivot as err:
            raise InternalError(f"spanning set at arity {n} is not certified free: {err}") from err
        _ROWS_CACHE[n] = (terms, solver)
    return _ROWS_CACHE[n]


def freeness_certificate(n: int) -> bool:
    """Check (a): each of the 2^(n-1) spanning rows B is the closed form of
    its descriptor (T, Q), Q disjoint from T, so B is unitriangular on the
    columns eps_T, |T| even, ordered by inclusion: it has an all-ones
    Smith diagonal over every base ring, and the unit-pivot solver keeps
    every row.  Returns True; a failure raises ``InternalError``."""
    if not 1 <= n <= MAX_COMODULE_ARITY:
        raise ValueError(f"arity must be between 1 and {MAX_COMODULE_ARITY}")
    terms, solver = _spanning_rows(n)
    if not len(solver.kept) == len(terms) == 2 ** (n - 1):
        raise InternalError(f"spanning set at arity {n} is not certified free")
    return True


_RANK_CACHE: dict = {}


def comodule_rank(n: int, ring: BaseRing) -> int:
    """Rank of the module spanned by all generalized signs of S_n.

    It is 2^(n-1) over every commutative ring, so ``ring`` does not change
    the answer.  The rank is proved once per arity, without the sign
    table, by exact integer checks on the spanning rows B, the row b_T of
    the term of descriptor (T, Q_T) being eps_T * prod_{p in Q_T}(1 -
    theta*eps_p):

    (a) B is that closed form, so it is unitriangular
        (``freeness_certificate``): it has an all-ones Smith diagonal and
        spans a direct summand of rank 2^(n-1);
    (b') the row of the empty tail is 1, and A_(s_k)(b_T), for every
        adjacent transposition s_k = (k k+1) and every row b_T of B,
        equals its closed form (``_adjacent_rule``): -b_T if k and k+1
        are both in T, b_T' if exactly one is, T' being T with k and k+1
        exchanged, and b_T - b_(T+{k,k+1}) if neither is.

    (b') is checked on the descriptors.  With K = {k, k+1}, b_T = F*G,
    where G = eps_(T&K) * prod_{p in Q_T&K}(1 - theta*eps_p) and F is
    the factor on the other letters.  A_(s_k) = (1 -
    eps_k*eps_(k+1))*phi_(s_k), and the ring map phi_(s_k) fixes F, so
    A_(s_k)(b_T) = F*A_(s_k)(G).  So b_T meets the rule if (1) each row
    b_T' that the rule names has T' and Q_T' equal to T and Q_T off K,
    so that its factor off K is F too, and (2) A_(s_k)(G) is the signed
    sum of the factors G' on K of those rows: an identity in theta, eps_k
    and eps_(k+1) that depends only on the bits of T, Q_T, T' and Q_T'
    on K.  The loop checks (1) for each (k, T), and (2) once per pattern
    of bits, on the letters 1 and 2 (``_holds_locally``).

    Both hold.  Let c be the parity of the letters of T below k.  The
    letters of T below a letter off K differ from those of T' by 0 or 2,
    which is (1); and k is in Q_T iff k is not in T and c is odd, k+1 iff
    k+1 is not in T and c + [k in T] is odd, so the bits of (T, Q_T) on K
    take 7 of their 16 values.  With eps_i^2 = theta*eps_i and theta^2 =
    2, the identities (2) are:

    - k and k+1 in T: G = eps_k*eps_(k+1), and A_(s_k)(G) = G -
      theta^2*G = (1 - 2)*G = -G.
    - exactly one in T, say k (k+1 is alike): G = eps_k*(1 -
      theta*eps_(k+1))^a, a = 1 iff c is even, and G' = eps_(k+1)*(1 -
      theta*eps_k)^(1-a).  As (1 - eps_k*eps_(k+1))*eps_(k+1) =
      eps_(k+1)*(1 - theta*eps_k), A_(s_k)(G) = eps_(k+1)*(1 -
      theta*eps_k)^(1+a) = G', since (1 - theta*eps_k)^2 = 1.
    - neither in T: G is 1 (c even) or (1 - theta*eps_k)*(1 -
      theta*eps_(k+1)) (c odd), which phi_(s_k) fixes, and the row of
      T+K has G' = eps_k*eps_(k+1).  As eps_k*(1 - theta*eps_k) =
      -eps_k, eps_k*eps_(k+1)*G = G' in both cases, so A_(s_k)(G) = G -
      G'.

    By the cocycle law, A_sigma(lam) = esgn(sigma)*phi_sigma(lam) is a
    Z-linear action of S_n on C[eps] (``sign_act`` of
    ``tests/conftest.py``, which the tests check) with A_sigma(1) the
    sign row of sigma, and the s_k generate S_n, so (b') puts every sign
    row in span(B).  Each row of B is psi of its term, a Z-combination of
    sign rows, so span(S) = span(B), free of rank 2^(n-1) over every
    ring, composite Z/m included.  A failed check raises ``InternalError``.
    """
    if n in _RANK_CACHE:
        return _RANK_CACHE[n]
    freeness_certificate(n)  # (a); rejects an arity out of range
    terms, solver = _spanning_rows(n)
    if solver.echelon[0][1] != {0: 1}:  # (b')
        raise InternalError(f"the row of {terms[0].render()} is not 1")
    # (b') on the descriptors: Q by tail mask, and the verdict of each
    # pattern, the bits of T and Q on {k, k+1} moved to {1, 2} with the
    # bits and signs of the rule's rows
    qs = {sum(1 << t for t in term.tail): sum(1 << p for p in _odd_letters(term)) for term in terms}
    holds: dict = {}
    for k in range(1, n):
        pair, shift = 3 << k, k - 1
        for term, (tail, q) in zip(terms, qs.items()):
            rule = _adjacent_rule(k, tail)
            targets = tuple((t >> shift & 6, qs[t] >> shift & 6, c) for t, c in rule)
            local = (tail >> shift & 6, q >> shift & 6, targets)
            if local not in holds:
                holds[local] = _holds_locally(*local)
            if not holds[local] or any((t ^ tail | qs[t] ^ q) & ~pair for t, _ in rule):
                raise InternalError(f"s_{k} moves the row of {term.render()} off its closed form")
    _RANK_CACHE[n] = 2 ** (n - 1)
    return _RANK_CACHE[n]


def grassmann_normal_form(f: MultilinearPoly) -> dict[SpanningTerm, object]:
    """Coordinates of f in the spanning basis, modulo the identity ideal.

    Solves psi(f) against the unitriangular sign images B of the
    spanning set, whose pivots are 1, so the coordinates are unique over
    every base ring, composite Z/m included; then verifies the residual
    f - sum c_B B is an identity.
    """
    ring = f.ring
    freeness_certificate(f.n)
    terms, solver = _spanning_rows(f.n)
    found, ok = solver.solve(psi(f).terms, ring)
    if not ok:
        raise InternalError("sign image not in the span of the spanning set")
    coords = {t: c for t, c in zip(terms, found) if c}
    residual = dict(f.coeffs)
    for t, c in coords.items():
        minus = ring.neg(c)
        for word, v in t.words.items():
            add_term(ring, residual, word, minus if v > 0 else c)
    if not is_identity(MultilinearPoly(f.n, ring, residual)):
        raise InternalError("normal-form residual is not an identity")
    return coords
