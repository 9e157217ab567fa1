"""The sign-twisted Grassmann algebra over C[eps].

Generators e_1, e_2, ... over the central coefficient ring C[eps],
subject to [e_i, e_j] = eps_i*eps_j*e_i*e_j, equivalently
e_j*e_i = (1 - eps_i*eps_j)*e_i*e_j.  Squares e_i^2 are central and
satisfy theta*eps_i*e_i^2 = 0.

Normal form: sorted words with multiplicities, coefficients in C[eps].
On a word where index i repeats, the coefficient is reduced modulo the
ideal theta*eps_i*C[eps]; concretely monomials containing both theta
and eps_i vanish, and coefficients of theta-free monomials containing
eps_i are only defined mod 2 (since 2 = theta^2).

The optional truncated mode works in the quotient by all e_i^2, where
any word with a repeated letter vanishes.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .epsilon import CoeffRing, EpsPoly, _to_poly, exp_map, monomial_key
from .rings import BaseRing, CapabilityError, GF, IntegerRing, ModRing, RingMismatchError
from .terms import AlgebraElem, add_term

# A word is a tuple of (generator index, multiplicity), indices strictly
# increasing and multiplicities positive.
Word = tuple[tuple[int, int], ...]


def word_from_letters(letters: Iterable[int]) -> Word:
    counts: dict[int, int] = {}
    for i in letters:
        if i < 1:
            raise ValueError("generator indices start at 1")
        counts[i] = counts.get(i, 0) + 1
    return tuple(sorted(counts.items()))


def word_letters(word: Word) -> list[int]:
    out = []
    for i, m in word:
        out.extend([i] * m)
    return out


def word_grade(word: Word) -> frozenset[int]:
    """Z2-grading: the set of indices appearing with odd multiplicity."""
    return frozenset(i for i, m in word if m % 2 == 1)


def word_parity_pairs(u_supp, v_supp) -> list[tuple[int, int]]:
    """eps_u * eps_v expanded into index pairs, one per support pair."""
    return [(a, b) for a in u_supp for b in v_supp]


def theta_eps_residue(coeff: EpsPoly, indices) -> EpsPoly:
    """The canonical residue of coeff modulo the ideal generated by
    theta*eps_i for i in ``indices``.

    Over the monomials m that meet the indices the ideal holds theta*m
    and 2*m (theta*eps_i*theta = 2*eps_i), and nothing else: so theta
    monomials meeting the indices vanish, and coefficients of theta-free
    ones meeting them are only defined mod 2.  This is the torsion of a
    repeated generator in both ``GrassAlgebra`` and ``SAlgebra``.
    """
    base = coeff.ring.base
    hit = sum(1 << i for i in indices)
    out = {}
    for m, c in coeff.terms.items():
        if m & hit:
            if m & 1:
                continue
            c = base.mod2(c)
            if base.is_zero(c):
                continue
        out[m] = c
    return EpsPoly(coeff.ring, out)


class WordAlgebra:
    """An algebra over C[eps] with a basis of words, the empty word ()
    its unit: the constructors and the accumulation shared by
    ``GrassAlgebra`` and ``SAlgebra``.  A subclass names its element
    class, ``_elem``, and supplies ``_reduce_coeff(word, c)``,
    ``_merge(u, v)`` and ``_grade(word)`` (see ``AlgebraElem``)."""

    def __init__(self, base: BaseRing | CoeffRing):
        self.coeff = base if isinstance(base, CoeffRing) else CoeffRing(base)
        self.base = self.coeff.base

    def zero(self):
        return self._elem(self, {})

    def one(self):
        return self.from_coeff(self.coeff.one())

    def from_coeff(self, c: EpsPoly):
        if c.is_zero():
            return self.zero()
        return self._elem(self, {(): c})

    def monomial(self, word, coeff: EpsPoly | None = None):
        terms: dict = {}
        self._accumulate(terms, word, self.coeff.one() if coeff is None else coeff)
        return self._elem(self, terms)

    def _accumulate(self, terms: dict, word, coeff: EpsPoly):
        coeff = self._reduce_coeff(word, coeff)
        if not coeff.is_zero():
            add_term(self.coeff, terms, word, coeff, self._reduce_coeff)

    def base_change(self, x):
        """The image here of x, an element of an algebra of the same kind
        whose scalars are ints: each scalar through this base's
        ``from_int``, then each coefficient reduced to its residue here.
        The residues of x's base need not be this base's: Z keeps 1 on a
        theta-free monomial that meets a repeated letter, and Q and Z/m
        for odd m keep 0.  An element of this algebra is its own image."""
        if x.algebra is self:
            return x
        terms: dict = {}
        for word, c in x.terms.items():
            self._accumulate(terms, word, _to_poly(self.coeff, c.terms))
        return self._elem(self, terms)


class GrassElem(AlgebraElem):
    """Element of the algebra: finite map word -> C[eps] coefficient."""

    __slots__ = ()

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    # -- rendering ----------------------------------------------------

    def render(self) -> str:
        """Golden format: terms sorted by word key, ``(coeff) * e1^a1*e2``."""
        if not self.terms:
            return "(0)"
        parts = []
        for word in sorted(self.terms):
            c = self.terms[word]
            if word:
                factors = "*".join(
                    f"e{i}^{m}" if m > 1 else f"e{i}" for i, m in word
                )
                parts.append(f"({c.render()}) * {factors}")
            else:
                parts.append(f"({c.render()})")
        return " + ".join(parts)

    def render_expr(self) -> str:
        """Expression-grammar format (powers expanded, re-parseable)."""
        if not self.terms:
            return "0"
        parts = []
        for word in sorted(self.terms):
            c = self.terms[word]
            letters = "*".join(f"e{i}" for i in word_letters(word))
            if not word:
                parts.append(f"({c.render_expr()})")
            elif c.is_one():
                parts.append(letters)
            else:
                parts.append(f"({c.render_expr()})*{letters}")
        return " + ".join(parts)


class GrassAlgebra(WordAlgebra):
    """Context object: base coefficient ring plus the truncation flag."""

    _elem = GrassElem

    def __init__(self, base: BaseRing | CoeffRing, truncated: bool = False):
        super().__init__(base)
        self.truncated = truncated

    def __eq__(self, other):
        return (
            isinstance(other, GrassAlgebra)
            and other.coeff == self.coeff
            and other.truncated == self.truncated
        )

    def __hash__(self):
        return hash((self.coeff, self.truncated))

    def __repr__(self):
        extra = ", truncated" if self.truncated else ""
        return f"GrassAlgebra({self.coeff}{extra})"

    # -- constructors ------------------------------------------------

    def from_int(self, n: int) -> GrassElem:
        return self.from_coeff(self.coeff.from_int(n))

    def scalar(self, c) -> GrassElem:
        return self.from_coeff(self.coeff.scalar(c))

    def eps(self, i: int) -> GrassElem:
        return self.from_coeff(self.coeff.eps(i))

    def theta(self) -> GrassElem:
        return self.from_coeff(self.coeff.theta())

    def gen(self, i: int) -> GrassElem:
        if i < 1:
            raise ValueError("generator indices start at 1")
        return GrassElem(self, {((i, 1),): self.coeff.one()})

    # -- normalization -----------------------------------------------

    _grade = staticmethod(word_grade)

    def _reduce_coeff(self, word: Word, coeff: EpsPoly) -> EpsPoly:
        """Reduce a coefficient modulo sum(theta*eps_i : i repeats in
        word); in the truncated algebra such a word is 0."""
        repeated = {i for i, m in word if m >= 2}
        if not repeated or coeff.is_zero():
            return coeff
        if self.truncated:
            return self.coeff.zero()
        return theta_eps_residue(coeff, repeated)

    def _merge(self, u: Word, v: Word) -> tuple:
        """The word of u*v and its sign, the exp of the pairs (b, a) of
        each letter b of v moved past a larger letter a of u."""
        pairs = []
        merged: dict[int, int] = dict(u)
        for b, q in v:
            for a, p in u:
                if b < a:
                    pairs.extend([(b, a)] * (p * q))
            merged[b] = merged.get(b, 0) + q
        return tuple(sorted(merged.items())), exp_map(self.coeff, pairs)


# -- commutators -------------------------------------------------------


def commutator(a: GrassElem, b: GrassElem) -> GrassElem:
    return a.commutator(b)


def scommutator(a: AlgebraElem, b: AlgebraElem) -> AlgebraElem:
    """Twisted commutator {a,b} = ab - exp(eps_g*eps_h) ba on homogeneous
    components, extended bilinearly; for ``GrassElem`` and ``SElem``."""
    a._check(b)
    alg = a.algebra
    result = alg.zero()
    for g, ag in a.grade_components().items():
        for h, bh in b.grade_components().items():
            factor = exp_map(alg.coeff, word_parity_pairs(g, h))
            result = result + ag * bh - (bh * ag).scale_coeff(factor)
    return result


# -- generalized sign --------------------------------------------------


def esgn(coeff: CoeffRing, words: Sequence, sigma: Sequence[int]) -> EpsPoly:
    """Sign of reordering the tuple of words by sigma.

    ``words`` may contain Word tuples or bare parity supports
    (sets/frozensets).  ``sigma`` is the tuple of images
    (sigma(1), ..., sigma(n)), 1-indexed.  The result is
    exp(sum of eps_{w_{sigma(i)}} eps_{w_{sigma(j)}} over inversions
    i < j, sigma(i) > sigma(j)); its square is 1.
    """
    supports = [
        word_grade(w) if isinstance(w, tuple) else frozenset(w) for w in words
    ]
    n = len(supports)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValueError(f"{sigma} is not a permutation of 1..{n}")
    pairs = []
    for i in range(n):
        for j in range(i + 1, n):
            if sigma[i] > sigma[j]:
                pairs.extend(
                    word_parity_pairs(supports[sigma[i] - 1], supports[sigma[j] - 1])
                )
    return exp_map(coeff, pairs)


def permute_words(words: Sequence, sigma: Sequence[int]) -> list:
    """sigma(w) = (w_{sigma(1)}, ..., w_{sigma(n)})."""
    return [words[s - 1] for s in sigma]


def reorder_product(algebra: GrassAlgebra, words: Sequence[Word], sigma) -> GrassElem:
    """Product of the words in sigma order; checks it equals
    esgn * (product in original order)."""
    lhs = algebra.one()
    for s in sigma:
        lhs = lhs * algebra.monomial(words[s - 1])
    rhs = algebra.one()
    for w in words:
        rhs = rhs * algebra.monomial(w)
    rhs = rhs.scale_coeff(esgn(algebra.coeff, words, sigma))
    if lhs != rhs:
        raise AssertionError("reordering sign law violated")
    return lhs


# -- substitution endomorphisms ----------------------------------------


def eps_circle(a: EpsPoly, b: EpsPoly) -> EpsPoly:
    """a (+) b = a + b - theta*a*b; the eps-image of concatenating words.

    Preserves the square law: if a^2 = theta*a and b^2 = theta*b then
    (a (+) b)^2 = theta * (a (+) b).
    """
    ring = a.ring
    return a + b - ring.theta() * a * b


def substitute_eps(p: EpsPoly, images: dict) -> EpsPoly:
    """The image of p under eps_i -> images[i], theta and the indices
    missing from ``images`` fixed.  Each image must satisfy the square
    law x^2 = theta*x, as circle sums do; then the map is a ring
    endomorphism of C[eps].  With no image, p itself is returned."""
    if not images:
        return p
    ring = p.ring
    out = ring.zero()
    for m, c in p.terms.items():
        t, eps = monomial_key(m)
        mono = ring.theta() if t else ring.one()
        for i in eps:
            mono = mono * images[i] if i in images else mono * ring.eps(i)
        out = out + mono.scale(c)
    return out


def word_eps_image(coeff: CoeffRing, word: Word) -> EpsPoly:
    """eps-image of a word under e_i -> word substitution bookkeeping."""
    acc = coeff.zero()
    for i, m in word:
        for _ in range(m):
            acc = eps_circle(acc, coeff.eps(i))
    return acc


def eta_endomorphism(
    algebra: GrassAlgebra, targets: Sequence[Word], x: GrassElem
) -> GrassElem:
    """Endomorphism with e_i -> targets[i-1]; eps_i maps to the matching
    combination so the defining relations are preserved."""
    if x.algebra != algebra:
        raise RingMismatchError("element not over the given algebra")
    coeff = algebra.coeff
    n = len(targets)
    eps_images = [word_eps_image(coeff, w) for w in targets]
    gen_images = [algebra.monomial(w) for w in targets]
    result = algebra.zero()
    for word, c in x.terms.items():
        if any(i > n for i, _ in word):
            raise ValueError(f"element uses generator outside e1..e{n}")
        if any(i > n for i in c.indices()):
            raise ValueError(f"coefficient uses eps index outside 1..{n}")
        cimg = substitute_eps(c, {i: eps_images[i - 1] for i in c.indices()})
        # image of the word
        wimg = algebra.one()
        for i, m in word:
            for _ in range(m):
                wimg = wimg * gen_images[i - 1]
        result = result + wimg.scale_coeff(cimg)
    return result


# -- quotients ----------------------------------------------------------


def quotient_mod_theta(x: GrassElem) -> GrassElem:
    """Image in the quotient by theta, over C/2C.

    Drops every monomial containing theta and maps scalars through
    C -> C/2C.  Only meaningful when C/2C is nontrivial (2 not a unit).
    """
    base = x.algebra.base
    if not (isinstance(base, IntegerRing) or (isinstance(base, ModRing) and base.m % 2 == 0)):
        raise CapabilityError(
            f"2 is invertible in {base}; the mod-theta quotient collapses"
        )
    quotient = GrassAlgebra(
        CoeffRing(GF(2), theta_zero=True), truncated=x.algebra.truncated
    )
    return quotient.base_change(x)
