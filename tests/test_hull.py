from fractions import Fraction

import pytest

from epsgrass import CoeffRing, GrassAlgebra, ModRing, QQ, ZZ
from epsgrass.hull import (
    GradeMismatchError,
    GradedPoly,
    Matrix,
    all_sign_maps,
    grassmann_involution,
    hull_eval_factorization,
    hull_evaluate,
    hull_tensor,
    idempotent_system_check,
    lambda_idempotent,
    phi_embed,
    projected_commutation_check,
)
from epsgrass.rings import CapabilityError
from epsgrass.salg import SAlgebra, SElem

from conftest import random_eps_poly, random_perm


CQ = CoeffRing(QQ)


def test_lambda_examples():
    assert lambda_idempotent(CQ, {}) == CQ.one()
    half = QQ.half()
    assert lambda_idempotent(CQ, {1: -1}) == (CQ.theta() * CQ.eps(1)).scale(half)


def test_lambda_needs_half():
    with pytest.raises(CapabilityError):
        lambda_idempotent(CoeffRing(ZZ), {1: -1})


def test_lambda_idempotence_random(rng):
    for _ in range(30):
        size = rng.randint(0, 4)
        idx = rng.sample(range(1, 7), size)
        signs = {a: rng.choice([-1, 1]) for a in idx}
        lam = lambda_idempotent(CQ, signs)
        assert lam * lam == lam


@pytest.mark.parametrize("ring", [QQ, ModRing(5)], ids=["Q", "Z/5"])
def test_idempotent_system(ring):
    coeff = CoeffRing(ring)
    for size in range(0, 4):
        assert idempotent_system_check(coeff, range(1, size + 1))


def test_projected_commutation_all_patterns():
    for size in range(0, 4):
        algebra = GrassAlgebra(CQ)
        for signs in all_sign_maps(range(1, size + 1)):
            assert projected_commutation_check(algebra, signs), signs


# -- phi embed ------------------------------------------------------------


def single_index_salgebra():
    return SAlgebra(CQ)


def test_phi_embed_generator_images():
    S = single_index_salgebra()
    target = GrassAlgebra(CQ)
    half = QQ.half()
    odd = phi_embed(S.gen({1}, 1), {1: 1}, target)
    assert odd == target.gen(1).scale_coeff((CQ.theta() * CQ.eps(1)).scale(half))
    even = phi_embed(S.gen({2}, 2), {2: 0}, target)
    assert even == target.gen(2).scale_coeff(
        CQ.one() - (CQ.theta() * CQ.eps(2)).scale(half)
    )


def test_phi_embed_odd_images_anticommute():
    S = single_index_salgebra()
    target = GrassAlgebra(CQ)
    a = phi_embed(S.gen({1}, 1), {1: 1, 2: 1}, target)
    b = phi_embed(S.gen({2}, 2), {1: 1, 2: 1}, target)
    assert a * b == -(b * a)
    assert (a * a).is_zero()


def test_phi_embed_is_homomorphism(rng):
    S = single_index_salgebra()
    target = GrassAlgebra(CQ)
    parity = {1: 1, 2: 0, 3: 1, 4: 0}
    for _ in range(40):
        words = []
        for _ in range(2):
            keys = [
                (frozenset({rng.randint(1, 4)}), rng.randint(1, 2))
                for _ in range(rng.randint(0, 2))
            ]
            coeff = random_eps_poly(rng, CQ, max_index=4, nterms=2)
            words.append(S.monomial(keys, coeff))
        x, y = words
        fx, fy = phi_embed(x, parity, target), phi_embed(y, parity, target)
        assert phi_embed(x * y, parity, target) == fx * fy
        assert phi_embed(x + y, parity, target) == fx + fy


def test_phi_embed_injective_on_basis_words():
    # images of distinct square-free words (length <= 3) are linearly
    # independent over Q
    from itertools import combinations

    from rank_oracle import fraction_rank

    S = single_index_salgebra()
    target = GrassAlgebra(CQ)
    parity = {1: 1, 2: 1, 3: 0, 4: 0}
    words = [()]
    for r in range(1, 4):
        for combo in combinations(range(1, 5), r):
            words.append(tuple((frozenset({a}), a) for a in combo))
    images = [phi_embed(S.monomial(w), parity, target) for w in words]
    coords: dict = {}
    vectors = []
    for img in images:
        vec: dict = {}
        for word, c in img.terms.items():
            for mono, scalar in c.terms.items():
                col = coords.setdefault((word, mono), len(coords))
                vec[col] = scalar
        vectors.append(vec)
    rows = [[v.get(j, Fraction(0)) for j in range(len(coords))] for v in vectors]
    assert fraction_rank(rows) == len(words)


# -- matrices --------------------------------------------------------------


def int_matrix(coeff, rows):
    return Matrix([[coeff.from_int(v) for v in row] for row in rows], coeff.zero())


def test_matrix_trace_examples():
    cz = CoeffRing(ZZ)
    ident = Matrix.identity(2, cz.zero(), cz.one())
    assert ident.trace() == cz.from_int(2)
    e12 = int_matrix(cz, [[0, 1], [0, 0]])
    assert e12.trace().is_zero()


def test_matrix_trace_symmetry_random(rng):
    for _ in range(30):
        a = int_matrix(CQ, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        b = int_matrix(CQ, [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)])
        assert (a * b).trace() == (b * a).trace()


def test_matrix_shape_errors():
    cz = CoeffRing(ZZ)
    with pytest.raises(ValueError):
        Matrix([[cz.one()], [cz.zero(), cz.one()]], cz.zero())
    a = Matrix.identity(2, cz.zero(), cz.one())
    b = Matrix.identity(3, cz.zero(), cz.one())
    with pytest.raises(ValueError):
        a * b


# -- involution -------------------------------------------------------------


def random_graded_poly(rng, coeff, n, max_index=4):
    grades = [
        frozenset(rng.sample(range(1, max_index + 1), rng.randint(0, 2)))
        for _ in range(n)
    ]
    coeffs = {}
    for _ in range(rng.randint(1, 3)):
        key = random_perm(rng, n)
        c = random_eps_poly(rng, coeff, max_index=max_index, nterms=2)
        if not c.is_zero():
            coeffs[key] = c
    return GradedPoly(coeff, grades, coeffs)


def test_involution_even_grades_fixed():
    grades = [frozenset(), frozenset()]
    f = GradedPoly(CQ, grades, {(2, 1): CQ.one()})
    assert grassmann_involution(f) == f


def test_involution_transposition_sign():
    grades = [frozenset({1}), frozenset({2})]
    f = GradedPoly(CQ, grades, {(2, 1): CQ.one()})
    fstar = grassmann_involution(f)
    assert fstar.coeffs[(2, 1)] == CQ.one() - CQ.eps(1) * CQ.eps(2)


def test_involution_is_involution_and_linear(rng):
    for _ in range(60):
        n = rng.randint(1, 5)
        f = random_graded_poly(rng, CQ, n)
        fss = grassmann_involution(grassmann_involution(f))
        assert fss == f
    for _ in range(20):
        n = rng.randint(1, 4)
        f = random_graded_poly(rng, CQ, n)
        c = random_eps_poly(rng, CQ, nterms=2)
        lhs = grassmann_involution(f.map_coeffs(lambda k, v: v * c))
        rhs = grassmann_involution(f).map_coeffs(lambda k, v: v * c)
        assert lhs == rhs


# -- hull factorization ------------------------------------------------------


def test_hull_factorization_single_variable():
    S = SAlgebra(CQ)
    g = frozenset({1})
    f = GradedPoly(CQ, [g], {(1,): CQ.one()})
    mat = int_matrix(CQ, [[1, 2], [3, 4]])
    word = S.gen(g, 1)
    assert hull_eval_factorization(f, [(mat, g)], [word])


def test_hull_factorization_two_variables():
    S = SAlgebra(CQ)
    g, h = frozenset({1}), frozenset({2})
    f = GradedPoly(CQ, [g, h], {(1, 2): CQ.one()})
    m1 = int_matrix(CQ, [[0, 1], [1, 0]])
    m2 = int_matrix(CQ, [[2, 0], [0, 5]])
    w1, w2 = S.gen(g, 1), S.gen(h, 2)
    assert hull_eval_factorization(f, [(m1, g), (m2, h)], [w1, w2])


def test_hull_factorization_random(rng):
    S = SAlgebra(CQ)
    for _ in range(60):
        n = rng.randint(1, 3)
        f = random_graded_poly(rng, CQ, n, max_index=4)
        mats = []
        words = []
        for i in range(n):
            rows = [[Fraction(rng.randint(-3, 3)) for _ in range(2)] for _ in range(2)]
            mats.append((int_matrix(CQ, rows), f.grades[i]))
            keys = [(f.grades[i], rng.randint(1, 3))] if f.grades[i] else []
            if not keys:
                # grade-0 word: use an even generator
                keys = [(frozenset(), rng.randint(1, 3))]
            words.append(S.monomial(keys))
        assert hull_eval_factorization(f, mats, words)


def test_hull_tensors_add_and_multiply_as_tensors(rng):
    # a (x) w is the matrix of the entries a[r][c]*w over SAlgebra: its sums
    # on one word and its products are those of the tensors, and every
    # entry keeps the torsion residue of its words (over Z/4, on a word
    # that repeats its generator)
    C4 = CoeffRing(ModRing(4))
    S = SAlgebra(C4)
    g = frozenset({1, 2})
    w, v = S.gen(g, 1), S.gen({3}, 2)
    f = GradedPoly(C4, [g], {(1,): C4.theta() + C4.eps(3)})

    def matrix():
        rows = [[random_eps_poly(rng, C4, nterms=2) for _ in range(2)] for _ in range(2)]
        return Matrix(rows, C4.zero())

    for _ in range(20):
        a, b = matrix(), matrix()
        assert hull_tensor(a, w) + hull_tensor(b, w) == hull_tensor(a + b, w)
        assert hull_tensor(a, w) * hull_tensor(b, v) == hull_tensor(a * b, w * v)
        square = hull_tensor(a, w) * hull_tensor(b, w)
        assert square == hull_tensor(a * b, w * w)
        for entry in (e for row in square.rows for e in row):
            assert all(S._reduce_coeff(word, c) == c for word, c in entry.terms.items())
        value = hull_evaluate(f, [(a, g)], [w])
        assert value == hull_tensor(a.scale(f.coeffs[(1,)]), w)
        assert all(isinstance(e, SElem) for row in value.rows for e in row)


def test_hull_grade_mismatch():
    S = SAlgebra(CQ)
    g, h = frozenset({1}), frozenset({2})
    f = GradedPoly(CQ, [g], {(1,): CQ.one()})
    mat = int_matrix(CQ, [[1, 0], [0, 1]])
    with pytest.raises(GradeMismatchError):
        hull_evaluate(f, [(mat, h)], [S.gen(h, 1)])


def test_hull_evaluate_refuses_arity_0():
    # no matrix gives the size of the value of a constant
    f = GradedPoly(CQ, [], {(): CQ.one()})
    for check in (hull_evaluate, hull_eval_factorization):
        with pytest.raises(ValueError, match="arity 0"):
            check(f, [], [])
