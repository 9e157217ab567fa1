import random

import pytest

from epsgrass import GF, QQ, ZZ, CoeffRing, exp_map, scommutator
from epsgrass.salg import SAlgebra
from epsgrass.grassmann import word_parity_pairs

from conftest import random_eps_poly


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
