import random

import pytest

from epsgrass import (
    CoeffRing,
    GrassAlgebra,
    QQ,
    commutator,
    esgn,
    eta_endomorphism,
    exp_map,
    permute_words,
    quotient_mod_theta,
    reorder_product,
    scommutator,
    word_from_letters,
    word_grade,
)
from epsgrass.epsilon import EpsPoly
from epsgrass.grassmann import word_eps_image, eps_circle
from epsgrass.rings import CapabilityError, ModRing

from conftest import random_grass_elem, random_perm, random_word, zz_algebra
from raw_oracle import grass_to_raw, raw_mul, raw_reduce


A = zz_algebra()
C = A.coeff


def test_commutation_relation():
    # e2*e1 = (1 - eps1*eps2) e1*e2
    lhs = A.gen(2) * A.gen(1)
    rhs = (A.gen(1) * A.gen(2)).scale_coeff(C.one() - C.eps(1) * C.eps(2))
    assert lhs == rhs


def test_unit_and_square_kill():
    x = random_grass_elem(random.Random(5), A)
    assert A.one() * x == x and x * A.one() == x
    # e1 * e1: coefficient purged of theta*eps1 monomials
    sq = (A.gen(1).scale_coeff(C.theta() * C.eps(1))) * A.gen(1)
    assert sq.is_zero()
    # 2*eps1*e1^2 = theta^2*eps1*e1^2 = 0
    sq2 = (A.gen(1) * A.gen(1)).scale_coeff(C.eps(1).scale_int(2))
    assert sq2.is_zero()


def test_grassmann_identity_on_generators():
    for i, j, k in [(1, 2, 3), (1, 1, 2), (2, 3, 2), (1, 2, 2)]:
        assert commutator(A.gen(i), commutator(A.gen(j), A.gen(k))).is_zero()


def test_commutator_of_generators():
    expected = (A.gen(1) * A.gen(2)).scale_coeff(C.eps(1) * C.eps(2))
    assert commutator(A.gen(1), A.gen(2)) == expected


def test_repeated_letter_nested_commutator_is_zero():
    # [e1,[e1,e2]] = 2 eps1 eps2 e1^2 e2 = theta^2 eps1 eps2 e1^2 e2 = 0
    assert commutator(A.gen(1), commutator(A.gen(1), A.gen(2))).is_zero()


def test_mul_against_raw_oracle(rng):
    for _ in range(80):
        x = random_grass_elem(rng, A, max_index=3, max_len=3)
        y = random_grass_elem(rng, A, max_index=3, max_len=3)
        lib = grass_to_raw(x * y)
        raw = raw_mul(grass_to_raw(x), grass_to_raw(y))
        assert raw_reduce(raw, rng) == raw_reduce(lib)


def test_associativity_random(rng):
    for _ in range(40):
        x = random_grass_elem(rng, A, max_len=2)
        y = random_grass_elem(rng, A, max_len=2)
        z = random_grass_elem(rng, A, max_len=2)
        assert (x * y) * z == x * (y * z)


def test_squares_are_central(rng):
    for j in (1, 2, 3):
        sq = A.gen(j) * A.gen(j)
        for _ in range(20):
            x = random_grass_elem(rng, A)
            assert sq * x == x * sq


def test_grassmann_identity_random_triples(rng):
    for _ in range(60):
        x = random_grass_elem(rng, A, max_index=4, max_len=3)
        y = random_grass_elem(rng, A, max_index=4, max_len=3)
        z = random_grass_elem(rng, A, max_index=4, max_len=3)
        assert commutator(x, commutator(y, z)).is_zero()


def test_consequence_identities_random(rng):
    for _ in range(40):
        x, u, v, z = (random_grass_elem(rng, A, max_len=2) for _ in range(4))
        assert (commutator(x, u) * commutator(v, z)
                + commutator(x, v) * commutator(u, z)).is_zero()
        assert (commutator(x, u) * commutator(u, z)).is_zero()


def test_scommutator_vanishes():
    # twisted commutativity on monomials and random elements
    rng = random.Random(11)
    for _ in range(60):
        u = random_grass_elem(rng, A, max_len=3)
        v = random_grass_elem(rng, A, max_len=3)
        assert scommutator(u, v).is_zero()


def test_monomial_exchange_rule(rng):
    # u*w = exp(eps_u eps_w) w*u for monomial words
    from epsgrass.grassmann import word_parity_pairs

    for _ in range(80):
        u = random_word(rng, max_index=4, max_len=4)
        w = random_word(rng, max_index=4, max_len=4)
        mu, mw = A.monomial(u), A.monomial(w)
        factor = exp_map(C, word_parity_pairs(word_grade(u), word_grade(w)))
        assert mu * mw == (mw * mu).scale_coeff(factor)


def test_grade_examples():
    assert word_grade(word_from_letters([1, 2])) == frozenset({1, 2})
    assert word_grade(word_from_letters([1, 1])) == frozenset()
    assert word_grade(word_from_letters([1, 2, 2, 3])) == frozenset({1, 3})


# -- generalized signs -------------------------------------------------


def unit_words(n):
    return [word_from_letters([i]) for i in range(1, n + 1)]


def test_esgn_identity_and_transposition():
    w = unit_words(3)
    assert esgn(C, w, (1, 2, 3)) == C.one()
    assert esgn(C, w, (2, 1, 3)) == C.one() - C.eps(1) * C.eps(2)


def test_esgn_s3_table_matches_expected():
    # the full S_3 table of signs
    w = unit_words(3)
    e1, e2, e3, th, one = C.eps(1), C.eps(2), C.eps(3), C.theta(), C.one()
    expected = {
        (1, 2, 3): one,
        (2, 1, 3): one - e1 * e2,
        (1, 3, 2): one - e2 * e3,
        (3, 2, 1): one - e1 * e2 - e2 * e3 - e1 * e3 + th * e1 * e2 * e3,
        (2, 3, 1): one - e1 * e2 - e1 * e3 + th * e1 * e2 * e3,
        (3, 1, 2): one - e1 * e3 - e2 * e3 + th * e1 * e2 * e3,
    }
    for sigma, value in expected.items():
        assert esgn(C, w, sigma) == value, sigma


def test_esgn_squares_to_one(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        words = [random_word(rng, max_index=5, max_len=3) for _ in range(n)]
        s = esgn(C, words, random_perm(rng, n))
        assert s * s == C.one()


def _compose(sigma, tau):
    # (sigma tau)(i) = sigma(tau(i))
    return tuple(sigma[tau[i] - 1] for i in range(len(sigma)))


def test_esgn_cocycle_laws(rng):
    from epsgrass import phi_sigma

    for _ in range(80):
        n = rng.randint(2, 6)
        words = [random_word(rng, max_index=6, max_len=3) for _ in range(n)]
        sigma, tau = random_perm(rng, n), random_perm(rng, n)
        lhs = esgn(C, words, _compose(sigma, tau))
        rhs = esgn(C, words, sigma) * esgn(C, permute_words(words, sigma), tau)
        assert lhs == rhs
    for _ in range(60):
        n = rng.randint(2, 6)
        words = unit_words(n)
        sigma, tau = random_perm(rng, n), random_perm(rng, n)
        smap = {i + 1: sigma[i] for i in range(n)}
        lhs = esgn(C, words, _compose(sigma, tau))
        rhs = esgn(C, words, sigma) * phi_sigma(smap, esgn(C, words, tau))
        assert lhs == rhs


def test_reorder_product_examples(rng):
    words = [word_from_letters([1]), word_from_letters([2])]
    assert reorder_product(A, words, (2, 1)) == A.gen(2) * A.gen(1)
    # pair (e1e2, e3) swapped
    words = [word_from_letters([1, 2]), word_from_letters([3])]
    lhs = reorder_product(A, words, (2, 1))
    expected = (A.monomial(words[0]) * A.monomial(words[1])).scale_coeff(
        exp_map(C, [(1, 3), (2, 3)])
    )
    assert lhs == expected
    for _ in range(40):
        n = rng.randint(1, 4)
        ws = [random_word(rng, max_index=4, max_len=3) for _ in range(n)]
        reorder_product(A, ws, random_perm(rng, n))  # raises on violation


# -- substitution endomorphisms ----------------------------------------


def test_eps_circle_square_law(rng):
    # if a^2 = theta a and b^2 = theta b then (a(+)b)^2 = theta (a(+)b)
    for _ in range(40):
        a = word_eps_image(C, random_word(rng, max_index=4, max_len=3))
        b = word_eps_image(C, random_word(rng, max_index=4, max_len=3))
        s = eps_circle(a, b)
        assert s * s == C.theta() * s


def test_eta_images():
    targets = [word_from_letters([1])]
    assert eta_endomorphism(A, targets, A.gen(1)) == A.gen(1)
    # eps1 -> eps2 + eps3 - theta eps2 eps3 under e1 -> e2 e3
    targets = [word_from_letters([2, 3])]
    img = eta_endomorphism(A, targets, A.eps(1))
    expected = A.from_coeff(
        C.eps(2) + C.eps(3) - C.theta() * C.eps(2) * C.eps(3)
    )
    assert img == expected


def test_eta_is_algebra_homomorphism(rng):
    for _ in range(40):
        n = 3
        targets = [random_word(rng, max_index=5, max_len=2) for _ in range(n)]
        x = random_grass_elem(rng, A, max_index=n, max_len=2)
        y = random_grass_elem(rng, A, max_index=n, max_len=2)
        ex = eta_endomorphism(A, targets, x)
        ey = eta_endomorphism(A, targets, y)
        assert eta_endomorphism(A, targets, x * y) == ex * ey
        assert eta_endomorphism(A, targets, x + y) == ex + ey


def test_eta_rejects_unsupported_generator():
    with pytest.raises(ValueError):
        eta_endomorphism(A, [word_from_letters([1])], A.gen(2))


# -- quotients -----------------------------------------------------------


def test_quotient_mod_theta_examples():
    # theta*eps1*e1 dies
    x = A.gen(1).scale_coeff(C.theta() * C.eps(1))
    assert quotient_mod_theta(x).is_zero()
    # commutator relation survives over Z/2
    y = quotient_mod_theta(commutator(A.gen(1), A.gen(2)))
    q = y.algebra
    expected = (q.gen(1) * q.gen(2)).scale_coeff(q.coeff.eps(1) * q.coeff.eps(2))
    assert y == expected
    # eps_i^2 = 0 in the quotient
    qc = q.coeff
    assert (qc.eps(1) * qc.eps(1)).is_zero()


@pytest.mark.parametrize("m", [4, 6])
def test_quotient_mod_theta_over_an_even_modulus_agrees_with_z(rng, m):
    # C -> C/2C factors through Z/m for an even m, so the image of an
    # element over Z/m is the image of the same element over Z
    nonzero = 0
    for truncated in (False, True):
        alg_z = zz_algebra(truncated)
        alg_m = GrassAlgebra(CoeffRing(ModRing(m)), truncated=truncated)
        for _ in range(100):
            x = random_grass_elem(rng, alg_z, nterms=4)
            image = alg_m.zero()
            for word, c in x.terms.items():
                residues = {mask: v % m for mask, v in c.terms.items() if v % m}
                image = image + alg_m.monomial(word, EpsPoly(alg_m.coeff, residues))
            want = quotient_mod_theta(x)
            assert quotient_mod_theta(image) == want
            nonzero += not want.is_zero()
    assert nonzero > 50


def test_quotient_mod_theta_capability():
    B = GrassAlgebra(CoeffRing(QQ))
    with pytest.raises(CapabilityError):
        quotient_mod_theta(B.one())


def test_truncated_mode_drops_squares():
    T = zz_algebra(truncated=True)
    assert (T.gen(1) * T.gen(1)).is_zero()
    assert T.gen(1) * T.gen(2) == T.monomial(word_from_letters([1, 2]))
    # Grassmann identity still holds
    rng = random.Random(3)
    for _ in range(20):
        x = random_grass_elem(rng, T, max_len=2)
        y = random_grass_elem(rng, T, max_len=2)
        z = random_grass_elem(rng, T, max_len=2)
        assert commutator(x, commutator(y, z)).is_zero()


def test_render_golden_format():
    x = (A.gen(1) * A.gen(2)).scale_coeff(C.eps(1) * C.eps(2)) + A.one()
    assert x.render() == "([1]) + ([1]*eps1*eps2) * e1*e2"
    y = A.monomial(word_from_letters([1, 1, 2]))
    assert y.render() == "([1]) * e1^2*e2"


def test_eps_of_grade():
    assert word_grade(word_from_letters([1, 2])) == frozenset({1, 2})
    assert word_grade(word_from_letters([1, 1])) == frozenset()
    assert word_grade(word_from_letters([1, 2, 2, 3])) == frozenset({1, 3})


@pytest.mark.parametrize(
    "ring_name",
    ["Q", "F2", "F3", "Z/6"],
)
def test_grassmann_identity_over_other_rings(ring_name, rng):
    from epsgrass import GF, ModRing, QQ

    ring = {"Q": QQ, "F2": GF(2), "F3": GF(3), "Z/6": ModRing(6)}[ring_name]
    algebra = GrassAlgebra(CoeffRing(ring))
    for _ in range(40):
        x = random_grass_elem(rng, algebra, max_index=3, max_len=3)
        y = random_grass_elem(rng, algebra, max_index=3, max_len=3)
        z = random_grass_elem(rng, algebra, max_index=3, max_len=3)
        assert commutator(x, commutator(y, z)).is_zero()
        assert (x * y) * z == x * (y * z)
        assert scommutator(x, y).is_zero()


def test_eta_with_repeated_letter_target():
    # e1 -> e2*e2 sends eps1 to eps2 (+) eps2 = 0
    targets = [word_from_letters([2, 2])]
    assert eta_endomorphism(A, targets, A.eps(1)).is_zero()
    img = eta_endomorphism(A, targets, A.gen(1))
    assert img == A.monomial(word_from_letters([2, 2]))
