"""Sparse term maps: the arithmetic every container shares.

Every element of the package is a term map, a dict {key: nonzero
coefficient}.  ``ring`` is any object with ``add``, ``neg``, ``mul``,
``is_zero`` and ``from_int``: a ``BaseRing``, or a ``CoeffRing`` over
``EpsPoly`` values.  ``reduce(key, c)``, where given, maps a coefficient
to its canonical residue (the torsion of repeated words); stored
coefficients are already reduced, so only a sum needs it.  ``TermMap``
is the base of every container: it owns their parent check, equality,
sums, negation, scaling, powers and commutator a*b - b*a.  A product by a
constant is a scaling.  ``TracePoly`` lives here so that the co-module
code need not import the trace normalizer.
"""

from __future__ import annotations

from .rings import BaseRing, RingMismatchError


def render_sum(pieces) -> str:
    """A signed sum such as ``x1 - 2*x2 + 3`` from (coefficient text,
    body) pieces: a coefficient of 1 is left out before a nonempty body,
    and a leading minus sign becomes the operator that joins the piece.
    No piece renders as ``0``."""
    chunks: list[str] = []
    for text, body in pieces:
        neg = text.startswith("-")
        mag = text[1:] if neg else text
        if body and mag == "1":
            piece = body
        elif body:
            piece = f"{mag}*{body}"
        else:
            piece = mag
        if not chunks:
            chunks.append(f"-{piece}" if neg else piece)
        else:
            chunks.append(f"- {piece}" if neg else f"+ {piece}")
    return " ".join(chunks) or "0"


def add_term(ring, terms: dict, key, c, reduce=None) -> None:
    """terms[key] += c in place; a zero sum drops the key."""
    if key in terms:
        c = ring.add(terms[key], c)
        if reduce is not None:
            c = reduce(key, c)
    if ring.is_zero(c):
        terms.pop(key, None)
    else:
        terms[key] = c


def add_terms(ring, a: dict, b: dict, reduce=None) -> dict:
    """The term map of a + b."""
    out = dict(a)
    for key, c in b.items():
        add_term(ring, out, key, c, reduce)
    return out


def map_terms(ring, terms: dict, check=None) -> dict:
    """The term map of terms carried into ``ring``: each coefficient
    through ``ring.from_int``, the zeros dropped.  ``check(key)``, where
    given, runs on the key of each term kept."""
    frm, is_zero = ring.from_int, ring.is_zero
    out = {}
    for key, c in terms.items():
        c = frm(c)
        if not is_zero(c):
            if check is not None:
                check(key)
            out[key] = c
    return out


def scale_terms(ring, terms: dict, c, reduce=None) -> dict:
    """The term map of terms * c, each product on the left of c."""
    out = {}
    for key, v in terms.items():
        s = ring.mul(v, c)
        if reduce is not None:
            s = reduce(key, s)
        if not ring.is_zero(s):
            out[key] = s
    return out


class TermMap:
    """A finite sum of terms: ``terms`` maps each key to a nonzero
    coefficient, already reduced.

    A subclass names its parent, ``_parent()``: the tuple of its
    constructor's arguments before the terms, which two operands must
    share.  It names its coefficient ring, ``_coeff_ring()``, and, where
    coefficients have canonical residues, ``_reduce(key, c)``.  Products
    are each container's own; ``_one()`` is the unit of the one that has
    a product.
    """

    __slots__ = ("terms",)
    _reduce = None

    def _parent(self) -> tuple:
        return (self.ring,)

    def _coeff_ring(self):
        return self.ring

    def _one(self):
        raise TypeError(f"{type(self).__name__} has no product")

    def _new(self, terms: dict):
        """The element of the same parent with these terms."""
        return type(self)(*self._parent(), terms)

    def _check(self, other):
        """Raise ``RingMismatchError`` unless other's parent equals self's.
        A container whose parent is one object passes an operand of its
        own type over that same object before this comparison."""
        mine, theirs = self._parent(), other._parent()
        if mine != theirs:
            raise RingMismatchError(
                f"{', '.join(map(str, mine))} vs {', '.join(map(str, theirs))}"
            )

    def is_zero(self) -> bool:
        return not self.terms

    def _constant(self):
        """c of a constant {(): c}, or None; c is central: a product by it scales."""
        return self.terms.get(()) if len(self.terms) == 1 else None

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other._parent() == self._parent()
            and other.terms == self.terms
        )

    def __add__(self, other):
        self._check(other)
        return self._new(add_terms(self._coeff_ring(), self.terms, other.terms, self._reduce))

    def __neg__(self):
        # the negative of a nonzero residue is a nonzero residue
        neg, reduce = self._coeff_ring().neg, self._reduce
        if reduce is None:
            return self._new({k: neg(c) for k, c in self.terms.items()})
        return self._new({k: reduce(k, neg(c)) for k, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale_coeff(self, c):
        """Every coefficient times c, on the left of c."""
        return self._new(scale_terms(self._coeff_ring(), self.terms, c, self._reduce))

    scale = scale_coeff

    def scale_int(self, n: int):
        return self.scale_coeff(self._coeff_ring().from_int(n))

    def commutator(self, other):
        return self * other - other * self

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self._one()
        for _ in range(n):
            result = result * self
        return result

    def render(self) -> str:
        """The text form; a container with no format of its own shows its
        dict."""
        return repr(self.terms)

    def __repr__(self):
        return f"{type(self).__name__}({self.render()})"


class AlgebraElem(TermMap):
    """Element of an algebra over C[eps]: a term map word -> EpsPoly.

    The algebra supplies ``coeff`` (its ``CoeffRing``), ``_reduce_coeff``
    (the canonical residue of a coefficient on a word), ``_merge`` (the
    sorted word of a product of two words and its reordering sign, the
    exp of the eps pairs of the letters that pass each other),
    ``_grade`` (the Z2-grade of a word) and ``_accumulate`` (add one
    unreduced term to a term map).
    """

    __slots__ = ("algebra",)

    def __init__(self, algebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def _parent(self) -> tuple:
        return (self.algebra,)

    def _check(self, other):
        if type(other) is not type(self) or other.algebra is not self.algebra:
            TermMap._check(self, other)

    def _coeff_ring(self):
        return self.algebra.coeff

    @property
    def _reduce(self):
        return self.algebra._reduce_coeff

    def _one(self):
        return self.algebra.one()

    def scale(self, scalar):
        """Every coefficient times a scalar of the base ring."""
        return self.scale_coeff(self.algebra.coeff.scalar(scalar))

    def __mul__(self, other):
        self._check(other)
        if (c := other._constant()) is not None:
            return self.scale_coeff(c)
        if (c := self._constant()) is not None:
            return other.scale_coeff(c)
        alg = self.algebra
        out: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                word, sign = alg._merge(u, v)
                coeff = cu * cv if sign.is_one() else cu * cv * sign
                alg._accumulate(out, word, coeff)
        return self._new(out)

    def grade_components(self) -> dict:
        """The homogeneous components, keyed by their Z2-grade."""
        parts: dict = {}
        for word, c in self.terms.items():
            parts.setdefault(self.algebra._grade(word), {})[word] = c
        return {g: self._new(t) for g, t in parts.items()}


# -- trace polynomials ---------------------------------------------------
#
# atom: int (letter) | ("F", term); term: tuple of atoms


class NonMultilinearError(ValueError):
    pass


def _letters_of_term(term) -> list[int]:
    out: list[int] = []
    for atom in term:
        if isinstance(atom, int):
            out.append(atom)
        else:
            out.extend(_letters_of_term(atom[1]))
    return out


def _term_sort_key(term):
    return tuple(
        (0, a, ()) if isinstance(a, int) else (1, 0, _term_sort_key(a[1]))
        for a in term
    )


def _render_term(term) -> str:
    parts = []
    for atom in term:
        if isinstance(atom, int):
            parts.append(f"x{atom}")
        else:
            parts.append(f"Tr({_render_term(atom[1])})")
    return "*".join(parts)


class TracePoly(TermMap):
    """Finite sum of (coefficient, term) over a base ring.

    A term is a tuple of letters and formal traces ``("F", term)``; a
    polynomial without ``F`` is a plain noncommutative polynomial in the
    letters x_i."""

    __slots__ = ("ring",)

    def __init__(self, ring: BaseRing, terms: dict | None = None):
        self.ring = ring
        self.terms = terms or {}

    @classmethod
    def zero(cls, ring: BaseRing) -> "TracePoly":
        return cls(ring, {})

    @classmethod
    def const(cls, ring: BaseRing, c) -> "TracePoly":
        if ring.is_zero(c):
            return cls(ring, {})
        return cls(ring, {(): c})

    @classmethod
    def letter(cls, ring: BaseRing, i: int) -> "TracePoly":
        if i < 1:
            raise ValueError("letters are numbered from 1")
        return cls(ring, {(i,): ring.one()})

    def _one(self) -> "TracePoly":
        return TracePoly.const(self.ring, self.ring.one())

    def _check(self, other):
        if type(other) is not type(self) or other.ring is not self.ring:
            TermMap._check(self, other)

    def base_change(self, ring: BaseRing) -> "TracePoly":
        """The image over ``ring`` of a polynomial with int coefficients; a
        polynomial over ``ring`` is its own image."""
        if ring is self.ring:
            return self
        return TracePoly(ring, map_terms(ring, self.terms))

    def __mul__(self, other: "TracePoly") -> "TracePoly":
        self._check(other)
        if (c := other._constant()) is not None:
            return self.scale_coeff(c)
        if (c := self._constant()) is not None:
            return other.scale_coeff(c)
        ring = self.ring
        out: dict = {}
        for ta, ca in self.terms.items():
            for tb, cb in other.terms.items():
                add_term(ring, out, ta + tb, ring.mul(ca, cb))
        return TracePoly(ring, out)

    def commutator(self, other: "TracePoly") -> "TracePoly":
        """a*b - b*a, in its term order, by one ring product per term pair."""
        self._check(other)
        ring, a, b = self.ring, self.terms, other.terms
        out, products = {}, []  # products: (tb + ta, ca*cb) of each pair
        for ta, ca in a.items():
            for tb, cb in b.items():
                c = ring.mul(ca, cb)
                add_term(ring, out, ta + tb, c)
                products.append((tb + ta, c))
        if len(a) > 1 and len(b) > 1:  # else b*a's words are distinct, in this order
            ba: dict = {}
            for j in range(len(b)):
                for key, c in products[j::len(b)]:
                    add_term(ring, ba, key, c)
            products = ba.items()
        for key, c in products:
            add_term(ring, out, key, ring.neg(c))
        return TracePoly(ring, out)

    def trace(self) -> "TracePoly":
        """Apply F, linearly."""
        return TracePoly(self.ring, {(("F", t),): c for t, c in self.terms.items()})

    def require_multilinear(self) -> int:
        """Return the arity n; every term must use x_1..x_n exactly once."""
        n = None
        for term in self.terms:
            letters = sorted(_letters_of_term(term))
            if n is None:
                n = len(letters)
                if letters != list(range(1, n + 1)):
                    raise NonMultilinearError(
                        f"term uses letters {letters}, expected 1..{n} once each"
                    )
            elif letters != list(range(1, n + 1)):
                raise NonMultilinearError("terms differ in their letters")
        if n is None:
            return 0
        return n

    def render(self) -> str:
        return render_sum(
            (self.ring.render(self.terms[term]), _render_term(term))
            for term in sorted(self.terms, key=_term_sort_key)
        )
