import random

import pytest

# pytest rewrites the asserts of test modules, which keeps them under
# python -O; the oracle's Smith certificate check needs the same
pytest.register_assert_rewrite("smith_oracle")

from epsgrass import CoeffRing, GrassAlgebra, ZZ, exp_map, phi_sigma
from epsgrass.comodule import MultilinearPoly, _inversion_graph
from epsgrass.epsilon import monomial_key


@pytest.fixture
def rng():
    return random.Random(20240811)


def random_eps_poly(rng, coeff, max_index=4, nterms=3, lo=-3, hi=3):
    base = coeff.base
    acc = coeff.zero()
    for _ in range(rng.randint(0, nterms)):
        t = rng.randint(0, 1)
        size = rng.randint(0, max_index)
        eps = tuple(sorted(rng.sample(range(1, max_index + 1), size)))
        acc = acc + coeff.monomial(t, eps, base.sample(rng, lo, hi))
    return acc


def keyed(p) -> dict:
    """The terms of the EpsPoly p keyed by (t, eps), as the oracles key
    them."""
    return {monomial_key(m): c for m, c in p.terms.items()}


def random_word(rng, max_index=4, max_len=3):
    length = rng.randint(1, max_len)
    letters = [rng.randint(1, max_index) for _ in range(length)]
    from epsgrass import word_from_letters

    return word_from_letters(letters)


def random_grass_elem(rng, algebra, max_index=4, max_len=3, nterms=2, lo=-3, hi=3):
    acc = algebra.zero()
    for _ in range(rng.randint(1, nterms)):
        word = random_word(rng, max_index, max_len)
        coeff = random_eps_poly(rng, algebra.coeff, max_index, 2, lo, hi)
        acc = acc + algebra.monomial(word, coeff)
    return acc


def random_perm(rng, n):
    images = list(range(1, n + 1))
    rng.shuffle(images)
    return tuple(images)


def zz_algebra(truncated=False):
    return GrassAlgebra(CoeffRing(ZZ), truncated=truncated)


def sign_act(pi, lam):
    """Twisted action on the sign module: pi(lam) = esgn(pi) phi_pi(lam),
    esgn(pi) on unit words being the exp of pi's inversion graph.  The
    library acts only with s_1 on the letters 1 and 2 (check (b') of
    ``comodule.comodule_rank``); the tests check the adjacent
    transpositions on the spanning rows against this reference."""
    n = len(pi)
    if sorted(pi) != list(range(1, n + 1)):
        raise ValueError(f"{pi} is not a permutation of 1..{n}")
    pmap = {i + 1: pi[i] for i in range(n)}
    return exp_map(lam.ring, _inversion_graph(pi)) * phi_sigma(pmap, lam)


def sn_act_poly(pi, f):
    """Variable reordering action: keys sigma map to pi∘sigma."""
    out: dict = {}
    for key, c in f.coeffs.items():
        new = tuple(pi[i - 1] for i in key)
        out[new] = c
    return MultilinearPoly(f.n, f.ring, out)
