"""Sparse term maps: the arithmetic every container shares.

Every element of the package is a term map, a dict {key: nonzero
coefficient}.  ``ring`` is any object with ``add``, ``mul`` and
``is_zero``: a ``BaseRing``, or a ``CoeffRing`` over ``EpsPoly`` values.
``reduce(key, c)``, where given, maps a coefficient to its canonical
residue (the torsion of repeated words); stored coefficients are
already reduced, so only a sum needs it.  ``TracePoly`` lives here so
that the co-module code need not import the trace normalizer.
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


class AlgebraElem:
    """Element of an algebra over C[eps]: a term map word -> EpsPoly.

    The algebra supplies ``coeff`` (its ``CoeffRing``), ``_reduce_coeff``
    (the canonical residue of a coefficient on a word) and
    ``_accumulate`` (add one unreduced term to a term map).
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra, terms: dict):
        self.algebra = algebra
        self.terms = terms

    def is_zero(self) -> bool:
        return not self.terms

    def _check(self, other):
        if self.algebra != other.algebra:
            raise RingMismatchError(f"{self.algebra} vs {other.algebra}")

    def __add__(self, other):
        self._check(other)
        alg = self.algebra
        return type(self)(
            alg, add_terms(alg.coeff, self.terms, other.terms, alg._reduce_coeff)
        )

    def __neg__(self):
        alg = self.algebra
        out: dict = {}
        for w, c in self.terms.items():
            # renormalize: torsion coordinates have canonical residues
            alg._accumulate(out, w, -c)
        return type(self)(alg, out)

    def __sub__(self, other):
        return self + (-other)

    def scale_coeff(self, c):
        alg = self.algebra
        return type(self)(
            alg, scale_terms(alg.coeff, self.terms, c, alg._reduce_coeff)
        )

    def scale_int(self, n: int):
        return self.scale_coeff(self.algebra.coeff.from_int(n))

    def __eq__(self, other):
        return (
            type(other) is type(self)
            and other.algebra == self.algebra
            and other.terms == self.terms
        )


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


class TracePoly:
    """Finite sum of (coefficient, term) over a base ring.

    A term is a tuple of letters and formal traces ``("F", term)``; a
    polynomial without ``F`` is a plain noncommutative polynomial in the
    letters x_i."""

    __slots__ = ("ring", "terms")

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

    def _check(self, other: "TracePoly"):
        if self.ring != other.ring:
            raise RingMismatchError(f"{self.ring} vs {other.ring}")

    def __add__(self, other: "TracePoly") -> "TracePoly":
        self._check(other)
        return TracePoly(self.ring, add_terms(self.ring, self.terms, other.terms))

    def __neg__(self) -> "TracePoly":
        return TracePoly(self.ring, {t: self.ring.neg(c) for t, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "TracePoly") -> "TracePoly":
        self._check(other)
        ring = self.ring
        out: dict = {}
        for ta, ca in self.terms.items():
            for tb, cb in other.terms.items():
                add_term(ring, out, ta + tb, ring.mul(ca, cb))
        return TracePoly(ring, out)

    def commutator(self, other: "TracePoly") -> "TracePoly":
        return self * other - other * self

    def trace(self) -> "TracePoly":
        """Apply F, linearly."""
        return TracePoly(self.ring, {(("F", t),): c for t, c in self.terms.items()})

    def scale(self, c) -> "TracePoly":
        return TracePoly(self.ring, scale_terms(self.ring, self.terms, c))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, TracePoly)
            and other.ring == self.ring
            and other.terms == self.terms
        )

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

    def __repr__(self):
        return f"TracePoly({self.render()})"
