"""The free twisted-commutative algebra on graded generators.

Generators carry a Z2-support grade g and a numeric tag n, written
e_g^(n).  The only relations are the twisted commutation law

    e_h^(m) e_g^(n) = exp(eps_g eps_h) e_g^(n) e_h^(m)

together with its self-instance, which forces the torsion
(1 - exp(eps_g eps_g)) x^2 = 0 for every generator x = e_g^(n).
Normal form: words sorted by (sorted grade support, tag); coefficients
of words with a repeated generator are reduced to canonical residues
modulo the corresponding torsion ideal (a Hermite-normal-form lattice
reduction over Z and Z/m, row reduction over fields).
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .epsilon import CoeffRing, EpsPoly, all_monomials, exp_map
from .grassmann import word_parity_pairs
from .linalg import LatticeReducer, RationalEchelon
from .rings import IntegerRing, ModRing, RationalRing
from .terms import AlgebraElem, add_term

# generator key: (grade support frozenset, tag)
GenKey = tuple[frozenset, int]


def _sort_key(key: GenKey):
    g, n = key
    return (tuple(sorted(g)), n)


class SAlgebra:
    """Context for the free twisted-commutative algebra over C[eps]."""

    def __init__(self, base):
        self.coeff = base if isinstance(base, CoeffRing) else CoeffRing(base)
        self.base = self.coeff.base
        self._reducers: dict = {}

    def __eq__(self, other):
        return isinstance(other, SAlgebra) and other.coeff == self.coeff

    def __hash__(self):
        return hash(("SAlgebra", self.coeff))

    def __repr__(self):
        return f"SAlgebra({self.coeff})"

    def zero(self) -> "SElem":
        return SElem(self, {})

    def one(self) -> "SElem":
        return self.from_coeff(self.coeff.one())

    def from_coeff(self, c: EpsPoly) -> "SElem":
        if c.is_zero():
            return self.zero()
        return SElem(self, {(): c})

    def gen(self, grade: Iterable[int], tag: int) -> "SElem":
        key = (frozenset(grade), tag)
        return SElem(self, {(key,): self.coeff.one()})

    def monomial(self, keys: Sequence[GenKey], coeff: EpsPoly | None = None) -> "SElem":
        word = tuple(sorted(keys, key=_sort_key))
        c = self.coeff.one() if coeff is None else coeff
        terms: dict = {}
        self._accumulate(terms, word, c)
        return SElem(self, terms)

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
        ambient = set(coeff.indices())
        for g in repeated_grades:
            ambient |= g
        monos, index, reduce = self._get_reducer(
            frozenset(repeated_grades), frozenset(ambient)
        )
        reduced = reduce({index[key]: c for key, c in coeff.terms.items()})
        return EpsPoly(self.coeff, {monos[k]: c for k, c in reduced.items()})

    def _get_reducer(self, grades: frozenset, ambient: frozenset):
        """The ambient monomials, their column index and the torsion
        reducer on those columns, cached per (grades, ambient)."""
        cache_key = (tuple(sorted(tuple(sorted(g)) for g in grades)), tuple(sorted(ambient)))
        if cache_key in self._reducers:
            return self._reducers[cache_key]
        monos = all_monomials(ambient)
        index = {m: k for k, m in enumerate(monos)}
        # torsion generators 1 - exp(eps_g eps_g), built over Z so the
        # lattice is independent of the working base ring
        int_ring = CoeffRing(IntegerRing())
        int_gens = [
            int_ring.one() - exp_map(int_ring, word_parity_pairs(g, g))
            for g in sorted(grades, key=lambda s: tuple(sorted(s)))
        ]
        rows = []
        for u in int_gens:
            for m in monos:
                prod = u * EpsPoly(int_ring, {m: 1})
                row = [0] * len(monos)
                ok = True
                for key, c in prod.terms.items():
                    if key not in index:
                        ok = False  # escapes the ambient monomial set
                        break
                    row[index[key]] = c
                if ok and any(row):
                    rows.append(row)
        base = self.base
        if isinstance(base, RationalRing):
            reduce = RationalEchelon([dict(enumerate(r)) for r in rows]).reduce
        elif isinstance(base, (IntegerRing, ModRing)):
            ncols = len(monos)
            if isinstance(base, ModRing):
                rows += [
                    [base.m if i == j else 0 for j in range(ncols)] for i in range(ncols)
                ]
            lattice = LatticeReducer(rows, ncols)

            def reduce(vec: dict) -> dict:
                dense = [0] * ncols
                for k, c in vec.items():
                    dense[k] = c
                reduced = (base.from_int(v) for v in lattice.reduce(dense))
                return {k: c for k, c in enumerate(reduced) if not base.is_zero(c)}

        else:
            raise NotImplementedError(f"no torsion reducer over {base}")
        self._reducers[cache_key] = (monos, index, reduce)
        return self._reducers[cache_key]

    def _accumulate(self, terms: dict, word, coeff: EpsPoly):
        coeff = self._reduce_coeff(word, coeff)
        if not coeff.is_zero():
            add_term(self.coeff, terms, word, coeff, self._reduce_coeff)


class SElem(AlgebraElem):
    """Element of the free twisted-commutative algebra."""

    __slots__ = ()

    def __mul__(self, other: "SElem") -> "SElem":
        self._check(other)
        alg = self.algebra
        out: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                pairs = []
                for kb in v:
                    sb = _sort_key(kb)
                    for ka in u:
                        if sb < _sort_key(ka):
                            pairs.extend(word_parity_pairs(ka[0], kb[0]))
                factor = exp_map(alg.coeff, pairs)
                merged = tuple(sorted(u + v, key=_sort_key))
                coeff = cu * cv if factor.is_one() else cu * cv * factor
                alg._accumulate(out, merged, coeff)
        return SElem(alg, out)

    def grade_components(self) -> dict[frozenset, "SElem"]:
        parts: dict[frozenset, dict] = {}
        for word, c in self.terms.items():
            g: frozenset = frozenset()
            for key in word:
                g = g.symmetric_difference(key[0])
            parts.setdefault(g, {})[word] = c
        return {g: SElem(self.algebra, t) for g, t in parts.items()}

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

    def __repr__(self):
        return f"SElem({self.render()})"
