"""The coefficient ring C[eps] = C[theta, eps1, eps2, ...].

Defining relations: eps_i^2 = theta*eps_i and theta^2 = 2.  A reduced
monomial therefore carries theta to the power 0 or 1 and a strictly
increasing set of eps indices; all arithmetic keeps elements in this
normal form.

``EpsPoly`` instances are immutable by convention: no method mutates an
existing polynomial, so values can be shared freely.

A monomial is an int mask: bit 0 is theta and bit i >= 1 is eps_i, so
``EpsPoly.terms`` maps masks to nonzero scalars and every kernel reads
its keys as they are.  ``monomial_key`` decodes a mask to (t, eps), the
theta degree and the increasing eps indices, for rendering; the text
lists terms in the order of those pairs, not of the masks.  For masks a
and b the product monomial is (a|b) without bit 0; its theta degree is
(a&1) + (b&1) plus one per shared eps, the popcount of a & b without
bit 0, since eps_i^2 = theta*eps_i; an odd degree sets bit 0, and each
theta^2 = 2 doubles the coefficient, a factor 2 ** (degree // 2).
Coefficients accumulate with Python ``+`` and ``*`` (ints for Z and
Z/m, Fractions for Q) and reduce once per output monomial through
``from_int``.  ``exp_sum``, and ``psi`` in ``comodule``, add up many
exps with no product at all: one subset transform per maximal vertex
set, on a packed parity word per exp, from its edges or straight from a
permutation through XOR tables built once per shape, read out in one
cast and run in list slices.  A vertex set with few or sparse graphs
expands them instead, as long as that, fixed costs included, stays
under half the transform.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import reduce
from itertools import chain, combinations, compress
from math import lcm
from operator import itemgetter, sub, xor
from typing import Iterable

from .rings import BaseRing
from .terms import TermMap, add_term, render_sum

# The decoded form of a monomial mask: (theta_deg, eps_indices) with
# theta_deg in {0, 1} and eps_indices a strictly increasing tuple of
# positive ints.
Monomial = tuple[int, tuple[int, ...]]


class InternalError(Exception):
    """A contract that an exact kernel or the certified linear algebra
    guarantees was violated."""


class CoeffRing:
    """C[eps] over a base ring, optionally in the theta=0 quotient.

    The quotient (used for the mod-theta image) additionally kills every
    monomial containing theta; it only makes sense when 2 = 0 in the
    base ring, since theta^2 = 2.
    """

    def __init__(self, base: BaseRing, theta_zero: bool = False):
        if theta_zero and not base.two_is_zero():
            raise ValueError("theta=0 quotient requires 2 = 0 in the base ring")
        self.base = base
        self.theta_zero = theta_zero

    def __eq__(self, other):
        return (
            isinstance(other, CoeffRing)
            and other.base == self.base
            and other.theta_zero == self.theta_zero
        )

    def __hash__(self):
        return hash((self.base, self.theta_zero))

    def __repr__(self):
        suffix = ", theta=0" if self.theta_zero else ""
        return f"CoeffRing({self.base}{suffix})"

    # -- arithmetic on EpsPoly values, for the term-map helpers ------

    def add(self, a: "EpsPoly", b: "EpsPoly") -> "EpsPoly":
        return a + b

    def neg(self, a: "EpsPoly") -> "EpsPoly":
        return -a

    def mul(self, a: "EpsPoly", b: "EpsPoly") -> "EpsPoly":
        return a * b

    def is_zero(self, a: "EpsPoly") -> bool:
        return not a.terms

    # -- constructors ------------------------------------------------

    def zero(self) -> "EpsPoly":
        return EpsPoly(self, {})

    def one(self) -> "EpsPoly":
        return self.scalar(self.base.one())

    def scalar(self, c) -> "EpsPoly":
        if self.base.is_zero(c):
            return self.zero()
        return EpsPoly(self, {0: c})

    def from_int(self, n: int) -> "EpsPoly":
        return self.scalar(self.base.from_int(n))

    def eps(self, i: int) -> "EpsPoly":
        if i < 1:
            raise ValueError("eps indices start at 1")
        return EpsPoly(self, {1 << i: self.base.one()})

    def theta(self) -> "EpsPoly":
        if self.theta_zero:
            return self.zero()
        return EpsPoly(self, {1: self.base.one()})

    def monomial(self, theta_deg: int, eps: Iterable[int], c=None) -> "EpsPoly":
        """Reduced monomial c * theta^theta_deg * prod(eps)."""
        eps = tuple(sorted(eps))
        _check_monomial((theta_deg, eps))
        if self.theta_zero and theta_deg:
            return self.zero()
        cc = self.base.one() if c is None else c
        if self.base.is_zero(cc):
            return self.zero()
        return EpsPoly(self, {theta_deg | sum(1 << i for i in eps): cc})


def _check_monomial(key: Monomial):
    t, eps = key
    if t not in (0, 1):
        raise ValueError(f"theta degree {t} not reduced")
    if any(eps[k] >= eps[k + 1] for k in range(len(eps) - 1)):
        raise ValueError(f"eps indices {eps} not strictly increasing")
    if eps and eps[0] < 1:
        raise ValueError("eps indices start at 1")


def all_monomials(indices: Iterable[int]) -> list[Monomial]:
    """Every reduced monomial over the given eps indices: theta-free ones
    first, then by degree, then lexicographically."""
    idx = sorted(indices)
    out = []
    for t in (0, 1):
        for r in range(len(idx) + 1):
            out.extend((t, combo) for combo in combinations(idx, r))
    return out


# _BYTE_INDICES[p][b]: the eps indices 8p + i of the bits i set in byte
# b at byte position p of a mask (bit 0 is theta); built per position, so
# it grows with the widest mask decoded, not with the masks seen.
_BYTE_INDICES: list = []


def monomial_key(mask: int) -> Monomial:
    """The (theta degree, eps indices) of a monomial mask."""
    while mask >> 8 * len(_BYTE_INDICES):
        p = len(_BYTE_INDICES)
        _BYTE_INDICES.append(
            [tuple(8 * p + i for i in range(8) if b >> i & 1 and p + i) for b in range(256)]
        )
    eps, rest = (), mask
    for row in _BYTE_INDICES:
        if not rest:
            break
        eps += row[rest & 255]
        rest >>= 8
    return mask & 1, eps


class EpsPoly(TermMap):
    """Element of C[eps] in reduced form: map monomial mask -> nonzero
    scalar."""

    __slots__ = ("ring",)

    def __init__(self, ring: CoeffRing, terms: dict):
        self.ring = ring
        self.terms = terms

    def _coeff_ring(self) -> BaseRing:
        return self.ring.base

    def _one(self) -> "EpsPoly":
        return self.ring.one()

    def is_one(self) -> bool:
        return self.terms == {0: self.ring.base.one()}

    def indices(self) -> set[int]:
        union = 0
        for m in self.terms:
            union |= m
        return set(monomial_key(union)[1])

    def __mul__(self, other: "EpsPoly") -> "EpsPoly":
        self._check(other)
        ring = self.ring
        base = ring.base
        theta_zero = ring.theta_zero
        rhs = [(b & ~1, b & 1, c) for b, c in other.terms.items()]
        acc: dict = {}
        for a, ca in self.terms.items():
            ta, ea = a & 1, a & ~1
            for eb, tb, cb in rhs:
                t = ta + tb + (ea & eb).bit_count()
                m = ea | eb
                if t & 1:
                    if theta_zero:
                        continue
                    m |= 1
                c = ca * cb
                if t > 1:
                    c *= 1 << (t >> 1)
                acc[m] = acc[m] + c if m in acc else c
        frm = base.from_int
        out = {}
        for m, c in acc.items():
            c = frm(c)
            if c:
                out[m] = c
        return EpsPoly(ring, out)

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- rendering ----------------------------------------------------

    def _decoded(self) -> list:
        """The ((t, eps), c) terms, sorted by (t, eps): the render order."""
        return sorted(zip(map(monomial_key, self.terms), self.terms.values()), key=itemgetter(0))

    def render(self) -> str:
        """Golden-file format: ``[c]*theta*eps1*eps3`` terms in (t, eps)
        order."""
        if not self.terms:
            return "[0]"
        base = self.ring.base
        parts = []
        for (t, eps), c in self._decoded():
            text = f"[{base.render(c)}]*theta" if t else f"[{base.render(c)}]"
            if eps:
                text += "*eps" + "*eps".join(map(str, eps))
            parts.append(text)
        return " + ".join(parts)

    def render_expr(self) -> str:
        """Expression-grammar format, re-parseable by the CLI parser."""
        base = self.ring.base
        return render_sum(
            (base.render(c), "*".join(["theta"] * t + [f"eps{i}" for i in eps]))
            for (t, eps), c in self._decoded()
        )


# -- named operations ------------------------------------------------


def exp_map(ring: CoeffRing, pairs: Iterable[tuple[int, int]]) -> EpsPoly:
    """exp of a sum of eps_i*eps_j pairs: the product of (1 - eps_i*eps_j).

    Pair multiplicities reduce mod 2 first (exp(2a) = 1); an (i, i) pair
    contributes the square-consistent factor (1 - theta*eps_i).  The
    product is expanded over Z on masks, one pass per factor, and mapped
    into the ring once.  ``exp_sum`` of the one item (pairs, 1) runs the
    same expansion behind a grouping step, which made the trace
    workload's cold pass 20-30 % slower, so a single exp skips it.
    """
    pairs = list(pairs)
    for i, j in pairs:
        if i < 1 or j < 1:
            raise ValueError("eps indices start at 1")
    return _to_poly(ring, _expand(_odd_factors(pairs)))


def _odd_factors(pairs: Iterable) -> list:
    """The sorted masks of the binomials whose pairs occur an odd number
    of times: eps_i*eps_j, or theta*eps_i for i = j."""
    odd: set = set()
    for i, j in pairs:
        f = 1 << i | 1 << j if i != j else 1 << i | 1
        if f in odd:
            odd.remove(f)
        else:
            odd.add(f)
    return sorted(odd)


def _expand(factors: list) -> dict:
    """The product of the binomials (1 - f) over the factor masks f, a
    map mask -> int."""
    poly = {0: 1}
    for f in factors:
        ft, fe = f & 1, f & ~1
        for m, c in list(poly.items()):
            t = (m & 1) + ft + (m & fe).bit_count()
            prod = m & ~1 | fe | t & 1
            poly[prod] = poly.get(prod, 0) - (c << (t >> 1))
    return poly


def _expand_bound(factors: list) -> int:
    """An upper bound of the terms ``_expand`` visits: the sum of
    min(2^i, 2^(k+1)) over its passes i, since pass i starts from at most
    2^i terms, and there are at most 2^(k+1) masks on the k indices of the
    factors."""
    union = 0
    for f in factors:
        union |= f
    cap = (union & ~1).bit_count() + 1
    return (1 << min(len(factors), cap)) - 1 + (max(len(factors) - cap, 0) << cap)


def _to_poly(ring: CoeffRing, acc: dict, den: int = 1) -> EpsPoly:
    """The EpsPoly of the int terms acc (mask -> int), divided by den."""
    frm = ring.base.from_int
    out = {}
    for m, c in acc.items():
        if m & 1 and ring.theta_zero:
            continue
        c = frm(c if den == 1 else Fraction(c, den))
        if c:
            out[m] = c
    return EpsPoly(ring, out)


# _FIELD_MASKS[k, nbytes] packs one field of nbytes bytes per subset T of
# a k-vertex set, T indexed by its bit pattern: the masks whose field T
# holds bit p of T (the T that contain the vertex at position p), one
# per p, and the mask whose every field holds 1.  Its third item, a
# dict, holds what a parity reader builds from the masks (see
# ``_add_subset_image``), which so lives exactly as long as they do.  A
# memo of a pure function, one entry per shape seen with at most
# _MEMO_VERTICES vertices; a larger shape is rebuilt per call, for a
# transform that costs far more than building it.
_FIELD_MASKS: dict = {}
_MEMO_VERTICES = 12


def _field_masks(k: int, nbytes: int) -> tuple:
    got = _FIELD_MASKS.get((k, nbytes))
    if got is None:
        one, zero = (1).to_bytes(nbytes, "little"), bytes(nbytes)
        size = 1 << k
        masks = [
            # 2^p fields of 0, then 2^p fields of 1, repeated
            int.from_bytes((zero * run + one * run) * (size // (2 * run)), "little")
            for run in (1 << p for p in range(k))
        ]
        got = (masks, int.from_bytes(one * size, "little"), {})
        if k <= _MEMO_VERTICES:
            _FIELD_MASKS[k, nbytes] = got
    return got


def _edge_parity(vertices: tuple, masks: list, word_bytes: int, memo: dict):
    """The parity words of pair lists on ``vertices``: field T of exp(E)'s
    word holds e(T) mod 2, the number of pairs of E inside T, the XOR of
    the pairs' masks at[a] & at[b]."""
    at = dict(zip(vertices, masks))
    return lambda edges: reduce(xor, [at[a] & at[b] for a, b in edges], 0)


def _add_subset_image(acc: dict, vertices: tuple, members: list, parity_of) -> None:
    """acc[mask] += the coefficients of sum c*exp(E_x) over the (x, c)
    members, whose graphs all lie on ``vertices``; ints only.

    Every exp is evaluated on all the characters at once: its parity word
    has a field per subset T of the vertices, which holds e(T) mod 2.
    ``parity_of(vertices, masks, word_bytes, memo)`` returns the map from
    x to its parity word, given the masks of the fields T that contain
    each vertex, the size of a word in bytes, and ``memo``, the dict of
    the shape's ``_FIELD_MASKS`` entry, where it may keep what it builds
    from the masks."""
    k = len(vertices)
    size = 1 << k
    base = sum(abs(c) for _, c in members)  # the largest field value
    nbytes = base.bit_length() + 7 >> 3
    masks, ones, memo = _field_masks(k, nbytes)
    parity = parity_of(vertices, masks, nbytes << k, memo)
    # c goes to the set fields of a parity word in one multiply, a negative
    # c as |c| to the clear fields, so every field lies in 0..sum |c|
    packed = 0
    for x, c in members:
        word = parity(x)
        packed += c * word if c > 0 else -c * (word ^ ones)
    del masks, memo, parity  # the parity tables go before the fields are read out
    code = {1: "B", 2: "H", 4: "I", 8: "Q"}.get(nbytes)  # the width's array type
    if code:  # one cast; in big-endian order the last field comes first
        g = memoryview(packed.to_bytes(nbytes << k, sys.byteorder)).cast(code).tolist()
        if sys.byteorder == "big":
            g.reverse()
    else:
        data = packed.to_bytes(nbytes << k, "little")
        g = [int.from_bytes(data[i:i + nbytes], "little") for i in range(0, len(data), nbytes)]
    # M(P)(S) = sum over T in S of (-1)^(|S|-|T|) P(T), P(T) the fields: a
    # stage per vertex, in strided slices while fewer than its blocks
    for run in (1 << j for j in range(k)):
        step = 2 * run
        if 2 * run * run < size:
            for a in range(run, step):
                g[a::step] = map(sub, g[a::step], g[a - run::step])
        else:
            for lo in range(run, size, step):
                g[lo:lo + run] = map(sub, g[lo:lo + run], g[lo - run:lo])
    # g(T) = sum c*(-1)^e(T) is sum |c| - 2*P(T), so its transform x is
    # base - 2*P(empty set) at the empty set and -2*M(P)(S) elsewhere
    x, g[0] = base - 2 * g[0], 0
    if x:
        acc[0] = acc[0] + x if 0 in acc else x
    # the eps mask of subset S is low[S's first half] | high[the rest]:
    # two tables of 2^(k/2) masks, not one of 2^k
    half, low, high = k // 2, [0], [0]
    for p, v in enumerate(vertices):
        table = low if p < half else high
        table += [m | 1 << v for m in table]
    cut = (1 << half) - 1
    for s in compress(range(size), g):
        x, d = -2 * g[s], s.bit_count()
        q, r = divmod(x, 1 << (d + 1 >> 1))
        if r:
            raise InternalError(
                f"character sum {x} on {vertices} is not divisible by 2^{d + 1 >> 1}"
            )
        m = low[s & cut] | high[s >> half] | d & 1
        acc[m] = acc[m] + q if m in acc else q


# What expanding one exp costs besides the terms it visits (building its
# pair list, reducing and sorting it, adding the result), in term visits.
# psi of the comodule and identities bench inputs ran fastest from 16 up,
# with the bulk transform too (timed at 0, 8, 16, 24, 32; 48 before it).
_EXPAND_COST = 24


def _sum_exps(items: Iterable, edges_of, parity_of) -> tuple:
    """(acc, den): acc maps each mask to den times its coefficient in the
    sum of c*exp(E_x) over the (support, x, c) items, den the lcm of the
    denominators.  E_x is the pairs ``edges_of(x)`` on the vertices of the
    mask ``support``; ``parity_of`` is as in ``_add_subset_image``.

    Supports of k vertices, largest first, join the first group whose
    vertex set holds them and has at most max(k + 2, 10) vertices, or
    start one (merged into a sparse 18-letter group, 200 permutations of
    letters 1-12 took 1.06 s, not 0.08 s).  A group of k vertices has a
    budget of half its transform, k*2^(k-1) steps, in term visits, less
    ``_EXPAND_COST`` per item, the fixed cost of expanding it.  It expands
    its items, smallest supports first, each charged ``_expand_bound`` of
    its odd factors, and transforms the rest once the next bound overruns
    the budget: a group of more items than the budget pays for expands
    none, a dense graph on many letters goes straight to the transform,
    and a single sparse graph on many letters is expanded.
    """
    items = sorted(items, key=lambda item: item[0].bit_count(), reverse=True)
    ints = all(type(c) is int for _, _, c in items)
    den = 1 if ints else lcm(*(c.denominator for _, _, c in items))
    groups: dict = {}  # the support of a group -> its [(x, int coefficient)]
    owner: dict = {}  # support -> the members of its group
    for support, x, c in items:
        members = owner.get(support)
        if members is None:
            reach = max(support.bit_count() + 2, 10)
            top = next(
                (top for top in groups if support & top == support and top.bit_count() <= reach),
                support,
            )
            members = owner[support] = groups.setdefault(top, [])
        members.append((x, c if ints else c.numerator * (den // c.denominator)))
    del items  # the items go before the transforms
    acc: dict = {}  # mask -> int
    for top, members in groups.items():
        vertices = monomial_key(top)[1]
        budget = (len(vertices) << len(vertices) >> 2) - len(members) * _EXPAND_COST
        members.reverse()
        for index, (x, c) in enumerate(members):
            if budget >= 0:  # else not even the first expansion is paid for
                factors = _odd_factors(edges_of(x))
                budget -= _expand_bound(factors)
            if budget < 0:
                _add_subset_image(acc, vertices, members[index:], parity_of)
                break
            for m, v in _expand(factors).items():
                acc[m] = acc[m] + c * v if m in acc else c * v
    return acc, den


def exp_sum(ring: CoeffRing, items: Iterable) -> EpsPoly:
    """sum of c*exp(E) over (graph, c) items, a graph a list of index
    pairs (i, j) as in ``exp_map``: (i, i) stands for theta*eps_i, and
    pairs count mod 2.

    Lemma: s_i = 1 - theta*eps_i squares to 1, and on the characters
    s_i -> (-1)^(x_i) of GF(2)^V, 1 - eps_a*eps_b = (1 + s_a + s_b -
    s_a*s_b)/2 takes the value (-1)^(x_a*x_b) and 1 - theta*eps_a the
    value (-1)^(x_a).  So exp(E) evaluates to (-1)^e(T) on the character
    of T, e(T) the number of pairs inside T, and inverting the change of
    basis gives the coefficient of theta^(|S| mod 2)*eps_S as
    2^(-ceil(|S|/2)) * sum over T in S of (-1)^(|S|-|T|) * (-1)^e(T);
    every other monomial is 0.  The sum is the character sum of a GF(2)
    quadratic form on S, so it is 0 or divisible by 2^ceil(|S|/2).
    ``_sum_exps`` sums the exps by that transform or by expanding them.
    """
    members = []
    for edges, c in items:
        if not c:
            continue
        edges = list(edges)
        vertices = set(chain.from_iterable(edges))
        if vertices and min(vertices) < 1:
            raise ValueError("eps indices start at 1")
        members.append((sum(1 << v for v in vertices), edges, c))
    return _to_poly(ring, *_sum_exps(members, list, _edge_parity))


def phi_sigma(perm, p: EpsPoly) -> EpsPoly:
    """Index renaming eps_i -> eps_{perm(i)}, theta fixed.

    ``perm`` is a mapping (dict or callable) applied to every index it
    covers; missing indices are fixed.  An image below 1 raises
    ``ValueError``, as does a map that is not injective on a monomial.
    """
    get = None if callable(perm) and not isinstance(perm, dict) else perm.get
    moved = []  # (the bit of i, the bit of its image) for each index i that moves
    for i in p.indices():
        j = get(i, i) if get else perm(i)
        if j != i:
            if j < 1:
                raise ValueError("eps indices start at 1")
            moved.append((1 << i, 1 << j))
    keep = ~sum(bit for bit, _ in moved)
    out: dict = {}
    base = p.ring.base
    for m, c in p.terms.items():
        new = m & keep
        for bit, image in moved:
            if m & bit:
                new |= image
        # two indices of m with one image leave fewer bits
        if new.bit_count() != m.bit_count():
            raise ValueError("index map is not injective on the support")
        add_term(base, out, new, c)
    return EpsPoly(p.ring, out)
