import random
from fractions import Fraction
from math import lcm

import pytest

from epsgrass import GF, QQ, ZZ, CoeffRing, GrassAlgebra, ModRing, exp_map, scommutator
from epsgrass.epsilon import all_monomials
from epsgrass.grassmann import word_parity_pairs
from epsgrass.rings import RationalRing
from epsgrass.salg import SAlgebra

from conftest import keyed, random_eps_poly
from lattice_oracle import LatticeReducer


S = SAlgebra(CoeffRing(ZZ))
C = S.coeff


def random_selem(rng, alg, max_index=3, max_tag=3, max_len=2, nterms=2):
    acc = alg.zero()
    for _ in range(rng.randint(1, nterms)):
        keys = []
        for _ in range(rng.randint(0, max_len)):
            grade = frozenset(
                rng.sample(range(1, max_index + 1), rng.randint(0, max_index))
            )
            keys.append((grade, rng.randint(1, max_tag)))
        coeff = random_eps_poly(rng, alg.coeff, max_index=max_index, nterms=2)
        acc = acc + alg.monomial(keys, coeff)
    return acc


def test_commutation_relation():
    g, h = frozenset({1}), frozenset({2})
    a = S.gen(g, 1)
    b = S.gen(h, 2)
    factor = exp_map(C, word_parity_pairs(g, h))
    assert b * a == (a * b).scale_coeff(factor)


def test_unit():
    rng = random.Random(2)
    x = random_selem(rng, S)
    assert S.one() * x == x and x * S.one() == x


def test_generator_self_torsion():
    # {x, x} = 0 forces (1 - exp(eps_g eps_g)) x^2 = 0
    g = frozenset({1, 2})
    x = S.gen(g, 1)
    u = C.one() - exp_map(C, word_parity_pairs(g, g))
    assert (x * x).scale_coeff(u).is_zero()


@pytest.mark.parametrize("ring", [ZZ, QQ, GF(3)], ids=["Z", "Q", "F3"])
def test_scommutator_vanishes_random(ring):
    rng = random.Random(31)
    alg = SAlgebra(CoeffRing(ring))
    for _ in range(50):
        a = random_selem(rng, alg)
        b = random_selem(rng, alg)
        assert scommutator(a, b).is_zero()


def test_associativity_random():
    rng = random.Random(17)
    for _ in range(40):
        a = random_selem(rng, S)
        b = random_selem(rng, S)
        c = random_selem(rng, S)
        assert (a * b) * c == a * (b * c)


def test_neg_is_canonical():
    rng = random.Random(5)
    for _ in range(40):
        a = random_selem(rng, S)
        assert (a + (-a)).is_zero()
        assert -(-a) == a


def test_scommutator_vanishes_over_even_composite_modulus():
    from epsgrass import ModRing

    rng = random.Random(8)
    alg = SAlgebra(CoeffRing(ModRing(4)))
    for _ in range(30):
        a = random_selem(rng, alg)
        b = random_selem(rng, alg)
        assert scommutator(a, b).is_zero()


# -- the closed-form torsion residue against a Hermite-form oracle ---------

TORSION_RINGS = [
    CoeffRing(ZZ),
    CoeffRing(QQ),
    CoeffRing(ModRing(4)),
    CoeffRing(ModRing(6)),
    CoeffRing(GF(3)),
    CoeffRing(GF(2)),
    CoeffRing(GF(2), theta_zero=True),
]


def torsion_lattice(coeff, grades, cols):
    """The torsion ideal of the grades on the columns, as integer rows:
    each 1 - exp(eps_g eps_g) times each monomial, and m times each unit
    vector over Z/m.  Over Q only the span of the rows counts."""
    rows = []
    for g in grades:
        u = coeff.one() - exp_map(coeff, word_parity_pairs(g, g))
        rows.extend(vector(u * coeff.monomial(t, eps), cols) for t, eps in cols)
    if isinstance(coeff.base, ModRing):
        m = coeff.base.m
        rows.extend([m if i == j else 0 for j in range(len(cols))] for i in range(len(cols)))
    return LatticeReducer(rows, len(cols))


def vector(p, cols):
    # integer entries: Z and Z/m values are ints, Q values are scaled to
    # a common denominator (which keeps their rational span)
    terms = keyed(p)
    den = lcm(*(Fraction(c).denominator for c in terms.values()))
    return [int(terms.get(key, 0) * den) for key in cols]


def in_ideal(coeff, lattice, p, cols) -> bool:
    v = vector(p, cols)
    if isinstance(coeff.base, RationalRing):
        return len(LatticeReducer([row for _, row in lattice.hnf] + [v], len(cols)).hnf) == len(
            lattice.hnf
        )
    return not any(lattice.reduce(v))


def old_representative(coeff, lattice, c, cols):
    """The Hermite-form residue that SAlgebra stored before the closed
    form, for Z and Z/m."""
    base = coeff.base
    reduced = (base.from_int(v) for v in lattice.reduce(vector(c, cols)))
    return sum(
        (coeff.monomial(*k, v) for k, v in zip(cols, reduced) if not base.is_zero(v)), coeff.zero()
    )


def random_grades(rng, max_index, singletons):
    if singletons:
        return {frozenset({i}) for i in rng.sample(range(1, max_index + 1), rng.randint(1, 3))}
    return {
        frozenset(rng.sample(range(1, max_index + 1), rng.randint(1, 3)))
        for _ in range(rng.randint(1, 3))
    }


@pytest.mark.parametrize("coeff", TORSION_RINGS, ids=["Z", "Q", "Z4", "Z6", "F3", "F2", "F2-theta0"])
@pytest.mark.parametrize("singletons", [True, False], ids=["singleton", "multi"])
def test_torsion_residue_against_hermite_oracle(coeff, singletons):
    rng = random.Random(61)
    alg = SAlgebra(coeff)
    grass = GrassAlgebra(coeff)
    max_index = 5
    moved = 0
    for _ in range(12):
        grades = random_grades(rng, max_index, singletons)
        word = tuple((g, 1) for g in grades for _ in range(2))
        indices = set().union(*grades)
        c = random_eps_poly(rng, coeff, max_index=max_index, nterms=4)
        r = alg._reduce_coeff(word, c)
        cols = all_monomials(indices | c.indices())
        lattice = torsion_lattice(coeff, grades, cols)
        assert in_ideal(coeff, lattice, c - r, cols), (grades, c)
        assert alg._reduce_coeff(word, r) == r
        for _ in range(3):
            i = coeff.zero()
            for g in grades:
                u = coeff.one() - exp_map(coeff, word_parity_pairs(g, g))
                i = i + u * random_eps_poly(rng, coeff, max_index=max_index, nterms=3)
            assert in_ideal(coeff, lattice, i, cols)
            assert alg._reduce_coeff(word, c + i) == r, (grades, c, i)
        grass_rule = grass._reduce_coeff(tuple((min(g), 2) for g in sorted(grades, key=min)), c)
        if singletons:
            assert r == grass_rule
            if not isinstance(coeff.base, RationalRing):
                assert r == old_representative(coeff, lattice, c, cols)
        moved += r != grass_rule
    if not singletons and not coeff.theta_zero:
        assert moved  # alpha moved some representatives
