"""The coefficient ring C[eps] = C[theta, eps1, eps2, ...].

Defining relations: eps_i^2 = theta*eps_i and theta^2 = 2.  A reduced
monomial therefore carries theta to the power 0 or 1 and a strictly
increasing set of eps indices; all arithmetic keeps elements in this
normal form.

``EpsPoly`` instances are immutable by convention: no method mutates an
existing polynomial, so values can be shared freely.
"""

from __future__ import annotations

from collections import Counter
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
        base = self.ring.base
        theta_zero = self.ring.theta_zero
        acc: dict = {}
        for (t1, e1), c1 in self.terms.items():
            for (t2, e2), c2 in other.terms.items():
                c = base.mul(c1, c2)
                s1, s2 = set(e1), set(e2)
                # eps_i * eps_i -> theta * eps_i for every collision
                t = t1 + t2 + len(s1 & s2)
                eps = tuple(sorted(s1 | s2))
                # theta^2 -> 2
                if t >= 2:
                    c = base.mul(c, base.from_int(2 ** (t // 2)))
                    t = t % 2
                if theta_zero and t:
                    continue
                if base.is_zero(c):
                    continue
                key = (t, eps)
                s = base.add(acc.get(key, base.zero()), c)
                if base.is_zero(s):
                    acc.pop(key, None)
                else:
                    acc[key] = s
        return EpsPoly(self.ring, acc)

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
    contributes the square-consistent factor (1 - theta*eps_i).
    """
    counts: Counter = Counter()
    for i, j in pairs:
        counts[(min(i, j), max(i, j))] += 1
    result = ring.one()
    for (i, j), m in sorted(counts.items()):
        if m % 2 == 0:
            continue
        if i == j:
            factor = ring.one() - ring.theta() * ring.eps(i)
        else:
            factor = ring.one() - ring.eps(i) * ring.eps(j)
        result = result * factor
    return result


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
