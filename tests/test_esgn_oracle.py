"""Differential tests of the sign kernel against the plain-int oracles of
``esgn_oracle``: exp_map on arbitrary pair lists, esgn, and the C[eps]
product, over Z and reduced to Z/4, Z/6 and GF(3) (the product also over
Q and the GF(2) theta=0 quotient), and the co-module's integer sign rows:
the sign table and the closed-form spanning rows B."""

import random
from fractions import Fraction
from itertools import permutations

import pytest

from epsgrass import GF, QQ, ZZ, CoeffRing, EpsPoly, esgn, exp_map
from epsgrass.comodule import sign_matrix_int, spanning_terms
from epsgrass.rings import ModRing

from conftest import keyed
from esgn_oracle import binomial, exp_graph, exp_pairs, inversion_pairs, naive_mul, reduce

MODULI = (4, 6, 3)


def random_graph(rng, n):
    """A random simple graph on 1..n, as a pair list with repeats (which
    cancel mod 2) and both orientations."""
    edges = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1) if rng.random() < 0.5]
    pairs = []
    for a, b in edges:
        pairs.append((a, b) if rng.random() < 0.5 else (b, a))
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(range(1, n + 1), 2) if n > 1 else (1, 1)
        if a != b:
            pairs.extend([(a, b), (b, a)])
    rng.shuffle(pairs)
    return pairs


def assert_matches(pairs, want):
    """exp_map over Z and over every Z/m of ``MODULI`` equals the oracle."""
    assert keyed(exp_map(CoeffRing(ZZ), pairs)) == want
    for m in MODULI:
        assert keyed(exp_map(CoeffRing(ModRing(m)), pairs)) == reduce(want, m)


def test_closed_form_is_the_product_of_binomials():
    # the oracle against itself: closed form = naive product of 1 - eps_a*eps_b
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randint(1, 5)
        edges = {tuple(sorted(p)) for p in random_graph(rng, n)}
        prod = {(0, ()): 1}
        for a, b in sorted(edges):
            prod = naive_mul(prod, binomial(a, b))
        assert exp_graph(edges) == prod


def test_exp_map_matches_closed_form_on_random_graphs():
    rng = random.Random(7)
    for _ in range(300):
        pairs = random_graph(rng, rng.randint(1, 6))
        assert_matches(pairs, exp_pairs(pairs))


def test_exp_map_with_diagonal_pairs():
    rng = random.Random(17)
    cf2 = CoeffRing(GF(2), theta_zero=True)
    for _ in range(200):
        n = rng.randint(1, 5)
        pairs = [(rng.randint(1, n), rng.randint(1, n)) for _ in range(rng.randint(0, 8))]
        pairs += [(i, i) for i in range(1, n + 1) if rng.random() < 0.4]
        want = exp_pairs(pairs)
        assert_matches(pairs, want)
        assert keyed(exp_map(CoeffRing(QQ), pairs)) == want
        assert keyed(exp_map(cf2, pairs)) == reduce(want, 2, theta_zero=True)


@pytest.mark.parametrize("n", range(1, 6))
def test_esgn_every_permutation(n):
    supports = [frozenset({k}) for k in range(1, n + 1)]
    for sigma in permutations(range(1, n + 1)):
        assert_matches_esgn(supports, sigma)


@pytest.mark.parametrize("n, count", [(6, 25), (7, 8)])
def test_esgn_seeded_permutations(n, count):
    rng = random.Random(100 + n)
    supports = [frozenset({k}) for k in range(1, n + 1)]
    for _ in range(count):
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        assert_matches_esgn(supports, tuple(sigma))


def test_esgn_on_words_with_shared_letters():
    # overlapping supports give (i, i) pairs and repeated pairs
    rng = random.Random(23)
    for _ in range(80):
        n = rng.randint(2, 4)
        supports = [frozenset(rng.sample(range(1, 5), rng.randint(0, 2))) for _ in range(n)]
        sigma = list(range(1, n + 1))
        rng.shuffle(sigma)
        assert_matches_esgn(supports, tuple(sigma))


def assert_matches_esgn(supports, sigma):
    want = exp_pairs(inversion_pairs(supports, sigma))
    assert keyed(esgn(CoeffRing(ZZ), supports, sigma)) == want
    for m in MODULI:
        assert keyed(esgn(CoeffRing(ModRing(m)), supports, sigma)) == reduce(want, m)


def random_poly(rng, nterms=6, max_index=5, rational=False) -> dict:
    """Theta-heavy terms over overlapping eps sets, so collisions and
    theta^2 both occur."""
    out: dict = {}
    for _ in range(rng.randint(0, nterms)):
        t = rng.randint(0, 1)
        eps = tuple(sorted(rng.sample(range(1, max_index + 1), rng.randint(0, 3))))
        c = rng.choice((-3, -2, -1, 1, 2, 3, 5))
        if rational:
            c = Fraction(c, rng.choice((1, 2, 3)))
        out[(t, eps)] = out.get((t, eps), 0) + c
    return {k: c for k, c in out.items() if c}


def as_eps_poly(coeff: CoeffRing, poly: dict) -> EpsPoly:
    base = coeff.base
    out = coeff.zero()
    for (t, eps), c in poly.items():
        out = out + coeff.monomial(t, eps, c if isinstance(c, Fraction) else base.from_int(c))
    return out


@pytest.mark.parametrize(
    "coeff, modulus",
    [
        (CoeffRing(ZZ), None),
        (CoeffRing(QQ), None),
        (CoeffRing(ModRing(4)), 4),
        (CoeffRing(ModRing(6)), 6),
        (CoeffRing(GF(2), theta_zero=True), 2),
    ],
    ids=["Z", "Q", "Z/4", "Z/6", "GF2-theta0"],
)
def test_mul_matches_naive_product(coeff, modulus):
    rng = random.Random(31)
    rational = coeff.base == QQ
    for _ in range(300):
        p = random_poly(rng, rational=rational)
        q = random_poly(rng, rational=rational)
        if modulus is not None:
            p, q = reduce(p, modulus, coeff.theta_zero), reduce(q, modulus, coeff.theta_zero)
        got = keyed(as_eps_poly(coeff, p) * as_eps_poly(coeff, q))
        want = reduce(naive_mul(p, q), modulus, coeff.theta_zero)
        assert got == want


def oracle_sign(sigma) -> dict:
    """esgn of sigma on the generators e_1..e_n, by the oracle."""
    return exp_pairs(inversion_pairs([frozenset({k}) for k in range(1, len(sigma) + 1)], sigma))


@pytest.mark.parametrize("n", range(1, 7))
def test_sign_matrix_rows_match_oracle(n):
    perms, cols, rows = sign_matrix_int(n)
    assert perms == sorted(permutations(range(1, n + 1)))
    for sigma, row in zip(perms, rows):
        assert {cols[j]: v for j, v in enumerate(row) if v} == oracle_sign(sigma)


@pytest.mark.parametrize("n", range(1, 10))
def test_spanning_rows_match_oracle(n):
    # psi of each spanning term summed monomial by monomial, without the
    # closed-form lemma that ``sign_image`` uses
    cz = CoeffRing(ZZ)
    for term in spanning_terms(n):
        want: dict = {}
        for sigma, c in term.to_poly(ZZ).coeffs.items():
            for key, v in oracle_sign(sigma).items():
                want[key] = want.get(key, 0) + c * v
        assert keyed(term.sign_image(cz)) == {k: v for k, v in want.items() if v}
