"""The coefficient ring C[eps] = C[theta, eps1, eps2, ...].

Defining relations: eps_i^2 = theta*eps_i and theta^2 = 2.  A reduced
monomial therefore carries theta to the power 0 or 1 and a strictly
increasing set of eps indices; all arithmetic keeps elements in this
normal form.

``EpsPoly`` instances are immutable by convention: no method mutates an
existing polynomial, so values can be shared freely.

Products run on integer masks.  The public key (t, eps) of a monomial
maps to the mask with bit 0 = t and bit i set for each eps_i (memoized
both ways).  For masks a and b the product monomial is (a|b) without
bit 0; its theta degree is (a&1) + (b&1) plus one per shared eps, the
popcount of a & b without bit 0, since eps_i^2 = theta*eps_i; an odd
degree sets bit 0, and each theta^2 = 2 doubles the coefficient, a
factor 2 ** (degree // 2).  Coefficients accumulate with Python ``+``
and ``*`` (ints for Z and Z/m, Fractions for Q) and reduce once per
output monomial through ``from_int``.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable

from .rings import BaseRing, RingMismatchError
from .terms import add_term, add_terms, scale_terms

# A monomial key is (theta_deg, eps_indices) with theta_deg in {0, 1}
# and eps_indices a strictly increasing tuple of positive ints.
Monomial = tuple[int, tuple[int, ...]]

ONE_MONOMIAL: Monomial = (0, ())


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
        return EpsPoly(self, {ONE_MONOMIAL: c})

    def from_int(self, n: int) -> "EpsPoly":
        return self.scalar(self.base.from_int(n))

    def eps(self, i: int) -> "EpsPoly":
        if i < 1:
            raise ValueError("eps indices start at 1")
        return EpsPoly(self, {(0, (i,)): self.base.one()})

    def theta(self) -> "EpsPoly":
        if self.theta_zero:
            return self.zero()
        return EpsPoly(self, {(1, ()): self.base.one()})

    def monomial(self, theta_deg: int, eps: Iterable[int], c=None) -> "EpsPoly":
        """Reduced monomial c * theta^theta_deg * prod(eps)."""
        key = (theta_deg, tuple(sorted(eps)))
        _check_monomial(key)
        if self.theta_zero and theta_deg:
            return self.zero()
        cc = self.base.one() if c is None else c
        if self.base.is_zero(cc):
            return self.zero()
        return EpsPoly(self, {key: cc})


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


# The mask of a monomial key (t, eps): bit 0 is t, bit i is eps_i.  A
# memo of a pure function, so sharing it changes no result; it holds one
# entry per distinct monomial seen.
_MASKS: dict = {}  # key -> mask
_KEYS: dict = {}  # mask -> key


def _key_of(mask: int) -> Monomial:
    key = _KEYS.get(mask)
    if key is None:
        key = (mask & 1, tuple(i for i in range(1, mask.bit_length()) if mask >> i & 1))
        _KEYS[mask] = key
        _MASKS[key] = mask
    return key


def _masked(terms: dict) -> list:
    """The (mask, coefficient) pairs of a term map."""
    masks = _MASKS
    out = []
    for key, c in terms.items():
        m = masks.get(key)
        if m is None:
            t, eps = key
            m = t
            for i in eps:
                m |= 1 << i
            masks[key] = m
            _KEYS[m] = key
        out.append((m, c))
    return out


class EpsPoly:
    """Element of C[eps] in reduced form: map monomial -> nonzero scalar."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring: CoeffRing, terms: dict):
        self.ring = ring
        self.terms = terms

    # -- predicates --------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_one(self) -> bool:
        return self.terms == {ONE_MONOMIAL: self.ring.base.one()}

    def indices(self) -> set[int]:
        out: set[int] = set()
        for _, eps in self.terms:
            out.update(eps)
        return out

    def constant_term(self):
        return self.terms.get(ONE_MONOMIAL, self.ring.base.zero())

    # -- ring operations ---------------------------------------------

    def _check_ring(self, other: "EpsPoly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "EpsPoly") -> "EpsPoly":
        self._check_ring(other)
        return EpsPoly(self.ring, add_terms(self.ring.base, self.terms, other.terms))

    def __neg__(self) -> "EpsPoly":
        base = self.ring.base
        return EpsPoly(self.ring, {k: base.neg(c) for k, c in self.terms.items()})

    def __sub__(self, other: "EpsPoly") -> "EpsPoly":
        return self + (-other)

    def __mul__(self, other: "EpsPoly") -> "EpsPoly":
        self._check_ring(other)
        ring = self.ring
        base = ring.base
        theta_zero = ring.theta_zero
        lhs = _masked(self.terms)
        rhs = [(b & ~1, b & 1, c) for b, c in _masked(other.terms)]
        acc: dict = {}
        for a, ca in lhs:
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
                out[_key_of(m)] = c
        return EpsPoly(ring, out)

    def scale(self, c) -> "EpsPoly":
        return EpsPoly(self.ring, scale_terms(self.ring.base, self.terms, c))

    def scale_int(self, n: int) -> "EpsPoly":
        return self.scale(self.ring.base.from_int(n))

    def __pow__(self, n: int) -> "EpsPoly":
        if n < 0:
            raise ValueError("negative power")
        result = self.ring.one()
        for _ in range(n):
            result = result * self
        return result

    def __eq__(self, other):
        return (
            isinstance(other, EpsPoly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

    def __hash__(self):
        return hash((self.ring, tuple(sorted(self.terms.items()))))

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Golden-file format: ``[c]*theta*eps1*eps3`` terms in key order."""
        if not self.terms:
            return "[0]"
        base = self.ring.base
        parts = []
        for (t, eps) in sorted(self.terms):
            c = self.terms[(t, eps)]
            factors = [f"[{base.render(c)}]"]
            if t:
                factors.append("theta")
            factors.extend(f"eps{i}" for i in eps)
            parts.append("*".join(factors))
        return " + ".join(parts)

    def render_expr(self) -> str:
        """Expression-grammar format, re-parseable by the CLI parser."""
        if not self.terms:
            return "0"
        base = self.ring.base
        chunks: list[str] = []
        for (t, eps) in sorted(self.terms):
            c = self.terms[(t, eps)]
            factors = []
            if t:
                factors.append("theta")
            factors.extend(f"eps{i}" for i in eps)
            text = base.render(c)
            neg = text.startswith("-")
            mag = text[1:] if neg else text
            if factors and mag == "1":
                body = "*".join(factors)
            elif factors:
                body = "*".join([mag] + factors)
            else:
                body = mag
            if not chunks:
                chunks.append(f"-{body}" if neg else body)
            else:
                chunks.append(f"- {body}" if neg else f"+ {body}")
        return " ".join(chunks)

    def __repr__(self):
        return f"EpsPoly({self.render()})"


# -- named operations ------------------------------------------------


def exp_map(ring: CoeffRing, pairs: Iterable[tuple[int, int]]) -> EpsPoly:
    """exp of a sum of eps_i*eps_j pairs: the product of (1 - eps_i*eps_j).

    Pair multiplicities reduce mod 2 first (exp(2a) = 1); an (i, i) pair
    contributes the square-consistent factor (1 - theta*eps_i).  The
    product is expanded over Z on masks, one pass per factor, and mapped
    into the ring once.
    """
    odd: set = set()  # the mask of eps_i*eps_j, or of theta*eps_i for i = j
    for i, j in pairs:
        if i < 1 or j < 1:
            raise ValueError("eps indices start at 1")
        f = 1 << i | 1 << j if i != j else 1 << i | 1
        if f in odd:
            odd.remove(f)
        else:
            odd.add(f)
    poly = {0: 1}
    for f in sorted(odd):
        ft, fe = f & 1, f & ~1
        for m, c in list(poly.items()):
            t = (m & 1) + ft + (m & fe).bit_count()
            prod = m & ~1 | fe | t & 1
            poly[prod] = poly.get(prod, 0) - (c << (t >> 1))
    base = ring.base
    out = {}
    for m, c in poly.items():
        if m & 1 and ring.theta_zero:
            continue
        c = base.from_int(c)
        if not base.is_zero(c):
            out[_key_of(m)] = c
    return EpsPoly(ring, out)


def phi_sigma(perm, p: EpsPoly) -> EpsPoly:
    """Index renaming eps_i -> eps_{perm(i)}, theta fixed.

    ``perm`` is a mapping (dict or callable) applied to every index it
    covers; missing indices are fixed.
    """
    if callable(perm) and not isinstance(perm, dict):
        image = perm
    else:
        image = lambda i: perm.get(i, i)  # noqa: E731
    out: dict = {}
    base = p.ring.base
    for (t, eps), c in p.terms.items():
        new = tuple(sorted(image(i) for i in eps))
        if len(set(new)) != len(new):
            raise ValueError("index map is not injective on the support")
        add_term(base, out, (t, new), c)
    return EpsPoly(p.ring, out)
