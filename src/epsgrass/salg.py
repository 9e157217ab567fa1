"""The free twisted-commutative algebra on graded generators.

Generators carry a Z2-support grade g and a numeric tag n, written
e_g^(n).  The only relations are the twisted commutation law

    e_h^(m) e_g^(n) = exp(eps_g eps_h) e_g^(n) e_h^(m)

together with its self-instance, which forces the torsion
(1 - exp(eps_g eps_g)) x^2 = 0 for every generator x = e_g^(n).
Normal form: words sorted by (sorted grade support, tag); coefficients
of words with a repeated generator are reduced to canonical residues
modulo the corresponding torsion ideal I, in closed form.

The (a, b) and (b, a) pairs of exp(eps_g eps_g) cancel, so it is the
product of the (1 - theta*eps_a) over a in g, and the torsion generator
is theta*eps_g, with eps_g the circle sum of the eps_a (a (+) b =
a + b - theta*a*b; see ``grassmann.eps_circle``).  Since x (+) x = 0 and
theta*(x (+) y) = theta*x + theta*y - (theta*x)*(theta*y), I depends
only on the GF(2) span of the repeated grades.  Let b_k be the span's
reduced echelon basis with pivots p_k.  The substitution alpha:
eps_{p_k} -> eps_{b_k}, every other index fixed, is a ring involution
of C[eps] that maps I onto the ideal of the theta*eps_{p_k}, whose
residue ``grassmann.theta_eps_residue`` is also the torsion rule of
``GrassAlgebra``.  The residue modulo I is alpha of that residue of
alpha(c); for singleton grades alpha is the identity.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .epsilon import EpsPoly, exp_map
from .grassmann import (
    WordAlgebra,
    substitute_eps,
    theta_eps_residue,
    word_eps_image,
    word_parity_pairs,
)
from .terms import AlgebraElem

# generator key: (grade support frozenset, tag)
GenKey = tuple[frozenset, int]


def _sort_key(key: GenKey):
    g, n = key
    return (tuple(sorted(g)), n)


def _span_basis(grades) -> dict:
    """The reduced echelon basis of the GF(2) span of the grades (index
    sets under symmetric difference) as {pivot: vector}: each pivot is
    its vector's least index and lies in no other vector, so the basis
    depends on the span alone."""
    rows: dict = {}
    for g in grades:
        while g:
            p = min(g)
            if p not in rows:
                rows[p] = g
                break
            g = g ^ rows[p]
    for p in sorted(rows, reverse=True):
        for q, row in rows.items():
            if q != p and p in row:
                rows[q] = row ^ rows[p]
    return rows


class SElem(AlgebraElem):
    """Element of the free twisted-commutative algebra."""

    __slots__ = ()

    def render(self) -> str:
        if not self.terms:
            return "(0)"
        parts = []
        for word in sorted(self.terms, key=lambda w: tuple(_sort_key(k) for k in w)):
            c = self.terms[word]
            if word:
                gens = "*".join(
                    f"E[{{{','.join(map(str, sorted(g)))}}};{n}]" for g, n in word
                )
                parts.append(f"({c.render()}) * {gens}")
            else:
                parts.append(f"({c.render()})")
        return " + ".join(parts)


class SAlgebra(WordAlgebra):
    """Context for the free twisted-commutative algebra over C[eps]."""

    _elem = SElem

    def __eq__(self, other):
        return isinstance(other, SAlgebra) and other.coeff == self.coeff

    def __hash__(self):
        return hash(("SAlgebra", self.coeff))

    def __repr__(self):
        return f"SAlgebra({self.coeff})"

    def gen(self, grade: Iterable[int], tag: int) -> SElem:
        key = (frozenset(grade), tag)
        return SElem(self, {(key,): self.coeff.one()})

    def monomial(self, keys: Sequence[GenKey], coeff: EpsPoly | None = None) -> SElem:
        return super().monomial(tuple(sorted(keys, key=_sort_key)), coeff)

    @staticmethod
    def _grade(word) -> frozenset:
        g: frozenset = frozenset()
        for key in word:
            g = g.symmetric_difference(key[0])
        return g

    # -- torsion normalization ----------------------------------------

    def _reduce_coeff(self, word, coeff: EpsPoly) -> EpsPoly:
        repeated_grades = set()
        seen = set()
        for key in word:
            if key in seen:
                repeated_grades.add(key[0])
            seen.add(key)
        repeated_grades.discard(frozenset())  # exp(0)=1 gives no relation
        if not repeated_grades or coeff.is_zero():
            return coeff
        basis = _span_basis(repeated_grades)
        # alpha: eps_p -> eps_b for each pivot p of a basis vector b, an
        # involution that maps theta*eps_b to theta*eps_p
        alpha = {
            p: word_eps_image(self.coeff, tuple((i, 1) for i in sorted(b)))
            for p, b in basis.items()
            if len(b) > 1
        }
        residue = theta_eps_residue(substitute_eps(coeff, alpha), basis.keys())
        return substitute_eps(residue, alpha)

    def _merge(self, u, v) -> tuple:
        """The word of u*v and its sign, the exp of the parity pairs of
        each generator of v moved past a larger one of u."""
        pairs = []
        for kb in v:
            sb = _sort_key(kb)
            for ka in u:
                if sb < _sort_key(ka):
                    pairs.extend(word_parity_pairs(ka[0], kb[0]))
        return tuple(sorted(u + v, key=_sort_key)), exp_map(self.coeff, pairs)
