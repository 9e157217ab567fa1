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

from .epsilon import CoeffRing, EpsPoly, exp_map
from .rings import BaseRing, CapabilityError, GF, IntegerRing, ModRing, RingMismatchError
from .terms import AlgebraElem, add_term

# A word is a tuple of (generator index, multiplicity), indices strictly
# increasing and multiplicities positive.
Word = tuple[tuple[int, int], ...]

EMPTY_WORD: Word = ()


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


class GrassAlgebra:
    """Context object: base coefficient ring plus the truncation flag."""

    def __init__(self, base: BaseRing | CoeffRing, truncated: bool = False):
        self.coeff = base if isinstance(base, CoeffRing) else CoeffRing(base)
        self.base = self.coeff.base
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

    def zero(self) -> "GrassElem":
        return GrassElem(self, {})

    def one(self) -> "GrassElem":
        return self.from_coeff(self.coeff.one())

    def from_coeff(self, c: EpsPoly) -> "GrassElem":
        if c.is_zero():
            return self.zero()
        return GrassElem(self, {EMPTY_WORD: c})

    def from_int(self, n: int) -> "GrassElem":
        return self.from_coeff(self.coeff.from_int(n))

    def scalar(self, c) -> "GrassElem":
        return self.from_coeff(self.coeff.scalar(c))

    def eps(self, i: int) -> "GrassElem":
        return self.from_coeff(self.coeff.eps(i))

    def theta(self) -> "GrassElem":
        return self.from_coeff(self.coeff.theta())

    def gen(self, i: int) -> "GrassElem":
        if i < 1:
            raise ValueError("generator indices start at 1")
        return GrassElem(self, {((i, 1),): self.coeff.one()})

    def monomial(self, word: Word, coeff: EpsPoly | None = None) -> "GrassElem":
        c = self.coeff.one() if coeff is None else coeff
        terms: dict = {}
        self._accumulate(terms, word, c)
        return GrassElem(self, terms)

    # -- normalization -----------------------------------------------

    def _reduce_coeff(self, word: Word, coeff: EpsPoly) -> EpsPoly:
        """Reduce a coefficient modulo sum(theta*eps_i : i repeats in word)."""
        repeated = {i for i, m in word if m >= 2}
        if not repeated or coeff.is_zero():
            return coeff
        base = self.base
        out = {}
        for (t, eps), c in coeff.terms.items():
            if repeated.intersection(eps):
                if t:
                    continue  # theta*eps_i * e_i^2 = 0
                c = base.mod2(c)  # 2*eps_i * e_i^2 = theta^2*eps_i*e_i^2 = 0
                if base.is_zero(c):
                    continue
            out[(t, eps)] = c
        return EpsPoly(self.coeff, out)

    def _accumulate(self, terms: dict, word: Word, coeff: EpsPoly):
        if self.truncated and any(m >= 2 for _, m in word):
            return
        coeff = self._reduce_coeff(word, coeff)
        if not coeff.is_zero():
            add_term(self.coeff, terms, word, coeff, self._reduce_coeff)


class GrassElem(AlgebraElem):
    """Element of the algebra: finite map word -> C[eps] coefficient."""

    __slots__ = ()

    def __mul__(self, other: "GrassElem") -> "GrassElem":
        self._check(other)
        alg = self.algebra
        out: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                pairs = []
                merged: dict[int, int] = dict(u)
                for b, q in v:
                    for a, p in u:
                        if b < a:
                            pairs.extend([(b, a)] * (p * q))
                    merged[b] = merged.get(b, 0) + q
                factor = exp_map(alg.coeff, pairs)
                coeff = cu * cv if factor.is_one() else cu * cv * factor
                alg._accumulate(out, tuple(sorted(merged.items())), coeff)
        return GrassElem(alg, out)

    def scale(self, scalar) -> "GrassElem":
        return self.scale_coeff(self.algebra.coeff.scalar(scalar))

    def __pow__(self, n: int) -> "GrassElem":
        if n < 0:
            raise ValueError("negative power")
        result = self.algebra.one()
        for _ in range(n):
            result = result * self
        return result

    def __hash__(self):
        return hash((self.algebra, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    # -- structure ----------------------------------------------------

    def grade_components(self) -> dict[frozenset[int], "GrassElem"]:
        parts: dict[frozenset[int], dict] = {}
        for word, c in self.terms.items():
            parts.setdefault(word_grade(word), {})[word] = c
        return {g: GrassElem(self.algebra, t) for g, t in parts.items()}

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

    def __repr__(self):
        return f"GrassElem({self.render()})"


# -- commutators -------------------------------------------------------


def commutator(a: GrassElem, b: GrassElem) -> GrassElem:
    return a * b - b * a


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
        # image of the coefficient
        cimg = coeff.zero()
        for (t, eps), scalar in c.terms.items():
            mono = coeff.theta() if t else coeff.one()
            for i in eps:
                mono = mono * eps_images[i - 1]
            cimg = cimg + mono.scale(scalar)
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
    if isinstance(base, IntegerRing):
        target = GF(2)
    elif isinstance(base, ModRing) and base.m % 2 == 0:
        target = GF(2)
    else:
        raise CapabilityError(
            f"2 is invertible in {base}; the mod-theta quotient collapses"
        )
    quotient = GrassAlgebra(
        CoeffRing(target, theta_zero=True), truncated=x.algebra.truncated
    )
    result: dict = {}
    for word, c in x.terms.items():
        reduced = {}
        for (t, eps), scalar in c.terms.items():
            if t:
                continue
            img = target.from_int(scalar if isinstance(scalar, int) else int(scalar))
            if not target.is_zero(img):
                reduced[(0, eps)] = img
        if reduced:
            quotient._accumulate(result, word, EpsPoly(quotient.coeff, reduced))
    return GrassElem(quotient, result)
